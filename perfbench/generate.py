"""Seeded synthetic inputs and ground truth for one workload.

Writes, into one directory per (workload, seed):

- ``markers.txt``, ``dictionary.tsv``, ``reference.csv``: the program's inputs;
- ``gold_classify.jsonl``, ``gold_tables.jsonl``: gold files for the eval stages;
- ``world.json``: what the endpoint simulator serves (articles, per-marker
  PMID lists, labels, completions, one vector per surface form);
- ``truth.json``: what a correct run must produce, for the output checks.

The program under test sees only the first group and the simulator's
endpoints. Nothing here imports ``ihcmine``, so a change to the program
cannot move the expected results.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from pathlib import Path

import numpy as np

from workloads import TUMOUR_VARIANTS, Workload

ABSTRACT_WORDS = 200
SURFACE_NOISE = 0.02
ALIAS_OFFSET = 0.1
NEAR_DISTRACTOR_OFFSET = 0.5
ZIPF_EXPONENT = 1.1
NA_SITE_SHARE = 0.2
NA_CELL_SHARE = 0.1
MARKER_COUNT_SHARES = (0.40, 0.45, 0.15)  # abstracts retrieved by 1, 2, 3 markers: mean 1.75
CACHE_KEEP = 3

MARKER_POOL = (
    "ER", "PR", "HER2", "Ki-67", "p53", "CD3", "CD20", "CD34", "CD117", "S100", "SOX10", "TTF-1",
    "CK7", "CK20", "CDX2", "GATA3", "PAX8", "WT1", "Desmin", "Vimentin", "Synaptophysin",
    "Chromogranin", "INSM1", "p16", "p40", "p63", "CD31", "ERG", "SMA", "MLH1",
)
HISTOLOGIES = (
    "adenocarcinoma", "squamous cell carcinoma", "carcinoma", "sarcoma", "lymphoma",
    "neuroendocrine tumour", "small cell carcinoma", "clear cell carcinoma", "papillary carcinoma",
    "mucinous carcinoma", "signet ring cell carcinoma", "large cell carcinoma",
)
ORGANS = (
    "lung", "breast", "colon", "rectum", "stomach", "pancreas", "liver", "kidney", "bladder",
    "prostate", "ovary", "endometrium", "cervix", "thyroid", "skin", "esophagus", "gallbladder",
    "salivary gland", "head and neck", "soft tissue",
)
SITES = ORGANS + ("lymph node", "bone", "brain", "peritoneum", "pleura", "adrenal gland")
FILLER = (
    "Tissue microarrays were constructed from formalin fixed paraffin embedded blocks.",
    "Staining was scored independently by two pathologists blinded to clinical data.",
    "Antigen retrieval used heat induced epitope retrieval in citrate buffer.",
    "Cases were retrieved from the institutional archive over a ten year period.",
    "Clinicopathological parameters were compared using standard statistical tests.",
    "Follow up information was obtained from hospital records and registries.",
    "Discordant scores were resolved at a consensus review session.",
    "External controls were included on every slide run.",
    "The study was approved by the local research ethics committee.",
    "Whole sections were reviewed where microarray cores were not informative.",
    "Staining intensity and extent were recorded for each case.",
    "Morphological diagnosis followed the current classification of tumours.",
)
SEMANTIC_TYPES = {"marker": "T116", "tumour": "T191", "site": "T023"}


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _fmt(vector: np.ndarray) -> list[float]:
    return [round(float(x), 6) for x in vector]


class _Concepts:
    """Dictionary entries with vectors; each surface form targets one entry."""

    def __init__(self, seed: int, dim: int):
        self.rng = np.random.default_rng([seed, dim])
        self.dim = dim
        self.entries: list[tuple[str, str, str, list[float], str]] = []
        self.target: dict[str, list[float]] = {}  # surface form -> vector of the entry it names
        self._cuis = iter(random.Random(seed).sample(range(1_000_000, 9_999_999), 20_000))

    def add(self, kind: str, names: list[str]) -> str:
        """One concept: names[0] canonical, the rest aliases; plus one near distractor."""
        cui = f"C{next(self._cuis):07d}"
        base = _unit(self.rng, self.dim)
        stype = SEMANTIC_TYPES[kind]
        for i, name in enumerate(names):
            vector = base if i == 0 else base + ALIAS_OFFSET * _unit(self.rng, self.dim)
            entry_kind = "canonical" if i == 0 else ("trade_name" if name.startswith("anti-") else "alias")
            self.entries.append((cui, name, entry_kind, _fmt(vector), stype))
            self.target[name] = self.entries[-1][3]
        near = base + NEAR_DISTRACTOR_OFFSET * _unit(self.rng, self.dim)
        self.entries.append((f"C{next(self._cuis):07d}", f"{names[0]} related finding", "canonical", _fmt(near), stype))
        return cui

    def fill(self, total: int) -> None:
        types = list(SEMANTIC_TYPES.values()) + ["T047"]
        i = 0
        while len(self.entries) < total:
            cui = f"C{next(self._cuis):07d}"
            vector = _fmt(_unit(self.rng, self.dim))
            self.entries.append((cui, f"distractor concept {i}", "canonical", vector, types[i % len(types)]))
            i += 1

    def surface_vector(self, surface: str) -> list[float]:
        return _fmt(np.asarray(self.target[surface]) + SURFACE_NOISE * _unit(self.rng, self.dim))


def _pad(words: list[str], rng: random.Random) -> str:
    filler = list(FILLER)
    rng.shuffle(filler)
    pool = " ".join(filler * 4).split()
    words = words + pool[: max(0, ABSTRACT_WORDS - len(words))]
    return " ".join(words).rstrip(".") + "."


def _markdown(header: list[str], rows: list[dict]) -> str:
    lines = ["| " + " | ".join(header) + " |", "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        cells = [row["tumour_type"], row["tumour_site"]] + [row["cells"][m] for m in header[2:]]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _balanced_markers(pmids: list[str], markers: list[str], rng: random.Random) -> dict[str, list[str]]:
    n = len(pmids)
    n1 = round(MARKER_COUNT_SHARES[0] * n)
    n3 = round(MARKER_COUNT_SHARES[2] * n)
    ks = [1] * n1 + [3] * n3 + [2] * (n - n1 - n3)
    rng.shuffle(ks)
    counts = {m: 0 for m in markers}
    out = {}
    for pmid, k in zip(pmids, ks):
        chosen = sorted(markers, key=lambda m: (counts[m], rng.random()))[:k]
        for m in chosen:
            counts[m] += 1
        out[pmid] = [m for m in markers if m in chosen]
    return out


def build(w: Workload, seed: int, out: Path) -> None:
    rng = random.Random(f"{w.name}:{seed}")
    concepts = _Concepts(seed, w.dim)

    markers = rng.sample(MARKER_POOL, w.markers)
    marker_cui = {m: concepts.add("marker", [m, f"{m} protein", f"anti-{m} clone"]) for m in markers}
    combos = [(h, o) for h in HISTOLOGIES for o in ORGANS]
    tumour_surfaces: list[str] = []
    tumour_cui: dict[str, str] = {}
    for h, o in rng.sample(combos, w.tumour_concepts):
        names = [f"{o} {h}", f"{h} of the {o}", f"{h} ({o})"]
        cui = concepts.add("tumour", names)
        for name in names[:TUMOUR_VARIANTS]:
            tumour_surfaces.append(name)
            tumour_cui[name] = cui
    sites = rng.sample(SITES, w.site_concepts)
    for s in sites:
        concepts.add("site", [s, f"{s} tissue"])
    concepts.fill(w.dictionary_entries)

    pmids = [str(p) for p in rng.sample(range(10_000_000, 39_999_999), w.n_abstracts)]
    source = _balanced_markers(pmids, markers, rng)
    n_include = round(w.include_share * w.n_abstracts)
    include = set(rng.sample(pmids, n_include))
    include_order = [p for p in pmids if p in include]

    f = w.faults
    faulty = rng.sample(include_order, f.no_table + f.invalid_count + f.empty_tumour_type)
    no_table = set(faulty[: f.no_table])
    invalid = set(faulty[f.no_table : f.no_table + f.invalid_count])
    empty_type = set(faulty[f.no_table + f.invalid_count :])

    # Rows: every tumour surface appears at least once in a table that reaches
    # the aggregates, the rest repeat on a Zipf pattern; sites likewise.
    n_rows = {p: w.rows_cycle[i % len(w.rows_cycle)] for i, p in enumerate(include_order)}
    slots = [(p, r) for p in include_order if p not in no_table for r in range(n_rows[p])]
    if len(slots) < len(tumour_surfaces):
        raise ValueError(f"{w.name}: {len(slots)} table rows cannot cover {len(tumour_surfaces)} surfaces")
    ranked = tumour_surfaces[:]
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))]
    rng.shuffle(slots)
    row_tumour: dict[tuple[str, int], str] = dict(zip(slots, ranked))
    site_slots = slots[:]
    rng.shuffle(site_slots)
    row_site: dict[tuple[str, int], str] = dict(zip(site_slots, sites))

    tables: dict[str, dict] = {}
    for p in include_order:
        header = ["Tumor type", "Tumor site"] + source[p]
        used = {row_tumour[(p, r)] for r in range(n_rows[p]) if (p, r) in row_tumour}
        rows = []
        for r in range(n_rows[p]):
            tumour = row_tumour.get((p, r))
            while tumour is None:
                draw = rng.choices(ranked, weights)[0]
                if draw not in used:
                    tumour = draw
                    used.add(draw)
            site = row_site.get((p, r)) or ("NA" if rng.random() < NA_SITE_SHARE else rng.choice(sites))
            # Every row keeps at least its first cell, so every surface reaches normalize.
            cells = {}
            for i, m in enumerate(source[p]):
                if i > 0 and rng.random() < NA_CELL_SHARE:
                    cells[m] = "NA"
                else:
                    total = rng.randint(3, 80)
                    cells[m] = f"{rng.randint(0, total)}/{total}"
            rows.append({"tumour_type": tumour, "tumour_site": site, "cells": cells})
        tables[p] = {"pmid": p, "header": header, "rows": rows, "violations": []}

    articles: dict[str, list[str]] = {}
    completions: dict[str, str] = {}
    for p in pmids:
        marker_list = ", ".join(source[p])
        if p in include:
            table = tables[p]
            title = f"{marker_list} immunohistochemistry in {table['rows'][0]['tumour_type']} [ref {p}]"
            words = f"We evaluated {marker_list} by immunohistochemistry in {len(table['rows'])} tumour groups.".split()
            for row in table["rows"]:
                where = "" if row["tumour_site"] == "NA" else f" ({row['tumour_site']})"
                for m, cell in row["cells"].items():
                    if cell != "NA":
                        words += f"{m} was positive in {cell} cases of {row['tumour_type']}{where}.".split()
            rows = [dict(row, cells=dict(row["cells"])) for row in table["rows"]]
            if p in invalid:
                row, m = rows[0], source[p][0]
                positives, total = map(int, row["cells"][m].split("/"))
                row["cells"][m] = f"{total + 1 + positives % 5}/{total}"
            if p in empty_type:
                m = source[p][0]
                rows.append({"tumour_type": "", "tumour_site": "NA", "cells": {k: "NA" for k in source[p]} | {m: "2/9"}})
            completions[p] = (
                "The abstract does not report per-tumour counts that can be tabulated."
                if p in no_table
                else _markdown(table["header"], rows)
            )
        else:
            title = f"Immunohistochemical practice for {marker_list}: a review [ref {p}]"
            words = f"This review summarises published immunohistochemistry practice for {marker_list} without new cohort data.".split()
        articles[p] = [title, _pad(words, rng)]

    # What a correct pipeline computes from these completions.
    aggregates: dict[tuple[str, str], list[int]] = {}
    usable_pmids: dict[str, set[str]] = {}
    for p in include_order:
        if p in no_table:
            continue
        for line in completions[p].splitlines()[2:]:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            tcui = tumour_cui.get(cells[0])
            for m, cell in zip(tables[p]["header"][2:], cells[2:]):
                if cell == "NA":
                    continue
                positives, total = map(int, cell.split("/"))
                if tcui is None or not (total >= 1 and 0 <= positives <= total):
                    continue
                agg = aggregates.setdefault((marker_cui[m], tcui), [0, 0])
                agg[0] += positives
                agg[1] += total
                usable_pmids.setdefault(marker_cui[m], set()).add(p)

    surfaces = sorted(set(markers) | set(tumour_surfaces) | set(sites))
    world = {
        "workload": w.describe(),
        "markers": {m: [p for p in pmids if m in source[p]] for m in markers},
        "articles": articles,
        "labels": {p: ("Include" if p in include else "Exclude") for p in pmids},
        "completions": completions,
        "vectors": {s: concepts.surface_vector(s) for s in surfaces},
        "bad_label": sorted(rng.sample(pmids, f.bad_label)),
    }
    truth = {
        "pmids": pmids,
        "source_markers": {p: sorted(source[p]) for p in pmids},
        "include": sorted(include),
        "parse_quarantined": sorted(no_table),
        "aggregates": sorted([m, t, pos, tot] for (m, t), (pos, tot) in aggregates.items()),
        "marker_abstracts": {cui: len(ps) for cui, ps in sorted(usable_pmids.items())},
        "marker_cuis": {m: marker_cui[m] for m in markers},
    }

    out.mkdir(parents=True)
    (out / "markers.txt").write_text("\n".join(markers) + "\n", encoding="utf-8")
    dictionary = concepts.entries[:]
    rng.shuffle(dictionary)
    with (out / "dictionary.tsv").open("w", encoding="utf-8") as handle:
        for cui, name, kind, vector, stype in dictionary:
            handle.write(f"{cui}\t{name}\t{kind}\t{','.join(map(str, vector))}\t{stype}\n")
    _write_reference(out / "reference.csv", aggregates, marker_cui, tumour_cui)
    with (out / "gold_classify.jsonl").open("w", encoding="utf-8") as handle:
        for p in sorted(pmids):
            handle.write(json.dumps({"pmid": p, "label": world["labels"][p]}) + "\n")
    with (out / "gold_tables.jsonl").open("w", encoding="utf-8") as handle:
        for p in include_order:
            if p not in no_table | invalid | empty_type:
                handle.write(json.dumps(tables[p]) + "\n")
    (out / "world.json").write_text(json.dumps(world), encoding="utf-8")
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")


def _write_reference(path: Path, aggregates, marker_cui, tumour_cui) -> None:
    """One quantitative and one qualitative row per marker, for every name of the tumour."""
    names_of: dict[str, list[str]] = {}
    for name, cui in tumour_cui.items():
        names_of.setdefault(cui, []).append(name)
    lines = ["marker,tumour,kind,low,high"]
    for marker, mcui in marker_cui.items():
        mine = sorted(((tot, t, pos) for (m, t), (pos, tot) in aggregates.items() if m == mcui), reverse=True)
        for i, (tot, t, pos) in enumerate(mine[:2]):
            rate = round(100 * pos / tot)
            for name in names_of[t]:
                if i == 0:
                    lines.append(f'{marker},"{name}",range,{max(0, rate - 10)},{min(100, rate + 10)}')
                else:
                    lines.append(f'{marker},"{name}",{"positive" if rate >= 50 else "negative"},,')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def ensure(w: Workload, seed: int, cache_root: Path) -> Path:
    """The inputs for (workload, seed), generated once and reused from the cache."""
    here = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for name in ("generate.py", "workloads.py"):
        digest.update((here / name).read_bytes())
    digest.update(f"{w.name}:{seed}".encode())
    target = cache_root / f"{w.name}-s{seed}-{digest.hexdigest()[:10]}"
    if (target / "truth.json").exists():
        target.touch()
        return target
    cache_root.mkdir(parents=True, exist_ok=True)
    tmp = cache_root / f".tmp-{target.name}-{time.monotonic_ns()}"
    build(w, seed, tmp)
    try:
        tmp.rename(target)
    except OSError:  # a concurrent run finished the same inputs first
        shutil.rmtree(tmp, ignore_errors=True)
    stale = sorted(
        (d for d in cache_root.glob(f"{w.name}-s*") if d != target),
        key=lambda d: d.stat().st_mtime,
        reverse=True,
    )
    for d in stale[CACHE_KEEP - 1 :]:
        shutil.rmtree(d, ignore_errors=True)
    return target

