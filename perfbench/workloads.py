"""Workload parameters: corpus shape, dictionary size and endpoint behaviour.

Every count here is exact; the seed only decides which abstract gets which
marker, label, tumour surface and fault, and the wording and vectors. Two
seeds therefore give corpora with the same amount of work, so the spread of
a metric across seeds is machine noise, not a different workload.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

CONCURRENCY = 2  # --concurrency of every gateway stage: the machine's nproc
BACKOFF_S = 0.01  # --backoff of every stage, so a retried 503 costs little wall time
TUMOUR_VARIANTS = 2  # surface forms used per tumour concept


@dataclass(frozen=True)
class Faults:
    """Deterministic faults, keyed by a hash of the request body.

    The 503 share is per thousand. The other faults are exact counts of
    abstracts that the generator picks to spoil on purpose.
    """

    http_503_per_mille: int = 0  # first sighting of a body
    bad_label: int = 0  # first answered sighting of the abstract's classify prompt
    no_table: int = 0
    invalid_count: int = 0
    empty_tumour_type: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_abstracts: int
    include_share: float
    markers: int
    tumour_concepts: int
    site_concepts: int
    dictionary_entries: int  # total entries, distractors fill the rest
    dim: int
    rows_cycle: tuple[int, ...]
    llm_ms: float = 0.0  # service time of every chat and embedding request
    entrez_rps: float = 1000.0  # client-side Entrez budget (--rps)
    faults: Faults = field(default_factory=Faults)

    def describe(self) -> dict:
        return {**asdict(self), "concurrency": CONCURRENCY, "backoff_s": BACKOFF_S, "tumour_variants": TUMOUR_VARIANTS}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="endpoint-bound",
            why="round trips dominate: 20 ms per chat and embedding call, Entrez at 10 req/s; "
            "shows concurrency, fetch dedup and embedding batching",
            n_abstracts=300,
            include_share=0.5,
            markers=6,
            tumour_concepts=12,
            site_concepts=8,
            dictionary_entries=300,
            dim=64,
            rows_cycle=(1, 2, 3, 2),
            # The 20 ms is the mock latency of ROADMAP's end-to-end re-anchor run
            # (300 abstracts); 10 req/s is NCBI's E-utilities budget with an API
            # key (pubmed.RPS_WITH_KEY). Entrez itself answers at once, as the
            # test mocks do.
            llm_ms=20.0,
            entrez_rps=10.0,
        ),
        Workload(
            name="dictionary-bound",
            why="zero-latency endpoints, large 384-d dictionary, Zipf-repeated surfaces, plus 503s, bad labels, "
            "missing tables, invalid counts; normalize dominates. n_abstracts check fails (known defect)",
            n_abstracts=200,
            include_share=0.75,
            markers=12,
            tumour_concepts=110,
            site_concepts=20,
            dictionary_entries=4000,
            dim=384,
            # Half the tables have one row, so an invalid count there leaves the
            # abstract without a usable cell for its marker, as in real tables.
            rows_cycle=(1, 3, 1, 3),
            faults=Faults(
                http_503_per_mille=30,
                bad_label=20,
                no_table=6,
                invalid_count=12,
                empty_tumour_type=12,
            ),
        ),
    )
}
