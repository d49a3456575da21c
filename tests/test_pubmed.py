"""Entrez client behavior against a mock server: caps, one search per marker, dedup, throttling."""

import random
import socket
import sys
import threading
import time
from urllib.parse import parse_qs, unquote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihcmine import pubmed
from ihcmine.errors import EntrezParseError, IngestError, ValidationError
from ihcmine.pubmed import (
    RPS_WITH_KEY,
    RPS_WITHOUT_KEY,
    EntrezClient,
    RateLimiter,
    dedup_merge,
)

from mockservers import EntrezState, run_entrez

FAST = dict(requests_per_second=500.0, backoff_base=0.01)


class TestBuildQuery:
    """The esearch term ``search_pmids`` sends: the marker name, a space, then immunohisto*."""

    @staticmethod
    def sent_terms(marker):
        state = EntrezState(markers={marker: ["1"]})
        with run_entrez(state) as url:
            EntrezClient(base_url=url, **FAST).search_pmids(marker)
        return [parse_qs(query)["term"][0] for _, path, query in state.requests if path.endswith("esearch.fcgi")]

    def test_simple_marker(self):
        assert self.sent_terms("BCL2") == ["BCL2 immunohisto*"]

    def test_another_marker(self):
        assert self.sent_terms("HMB45") == ["HMB45 immunohisto*"]

    def test_slash_kept_in_stored_query(self):
        assert self.sent_terms("AE1/AE3") == ["AE1/AE3 immunohisto*"]

    def test_empty_marker_rejected(self, monkeypatch):
        monkeypatch.setattr(EntrezClient, "_get", lambda *a: pytest.fail("a request was sent"))
        with pytest.raises(ValidationError, match="marker must be non-empty"):
            EntrezClient(base_url="http://localhost:1", **FAST).search_pmids("")

    def test_surrounding_whitespace_rejected(self, monkeypatch):
        monkeypatch.setattr(EntrezClient, "_get", lambda *a: pytest.fail("a request was sent"))
        with pytest.raises(ValidationError, match="no surrounding whitespace, got ' ER '"):
            EntrezClient(base_url="http://localhost:1", **FAST).search_pmids(" ER ")


class TestSearchPmids:
    def test_passthrough_three_ids(self):
        state = EntrezState(markers={"ER": ["1", "2", "3"]})
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, **FAST)
            assert client.search_pmids("ER") == ["1", "2", "3"]

    def test_cap_enforced_at_9999(self):
        state = EntrezState(markers={"BIG": [str(7_000_000 + i) for i in range(12_000)]})
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, **FAST)
            pmids = client.search_pmids("BIG", cap=9999)
        assert len(pmids) == 9999
        assert len(set(pmids)) == 9999

    def test_one_request_per_search(self, caplog):
        state = EntrezState(markers={"ER": [str(i) for i in range(25)]})
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, **FAST)
            pmids = client.search_pmids("ER", cap=9999)
        assert pmids == [str(i) for i in range(25)]
        searches = [q for _, path, q in state.requests if path.endswith("esearch.fcgi")]
        assert searches == ["db=pubmed&term=ER+immunohisto%2A&retmax=9999&retstart=0"]
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    def test_duplicate_id_in_the_answer_deduplicated(self, caplog):
        state = EntrezState(markers={"ER": ["1", "2", "3", "3", "4"]})
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, **FAST)
            pmids = client.search_pmids("ER", cap=9999)
        assert pmids == ["1", "2", "3", "4"]
        assert "marker ER: esearch answered 4 PMIDs of 5 hits" in caplog.text

    def test_short_answer_warns_with_the_marker(self, monkeypatch, caplog):
        body = "<eSearchResult><Count>40</Count><IdList><Id>1</Id><Id>2</Id></IdList></eSearchResult>"
        client = EntrezClient(base_url="http://localhost:1", **FAST)
        monkeypatch.setattr(client, "_get", lambda *a, **k: body.encode("utf-8"))
        assert client.search_pmids("ER", cap=30) == ["1", "2"]
        assert "marker ER: esearch answered 2 PMIDs of 40 hits" in caplog.text
        assert "marker ER hit the 30-abstract cap (40 hits reported)" in caplog.text

    def test_slash_url_escaped_at_transport(self):
        state = EntrezState(markers={"AE1/AE3": ["5"]})
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, **FAST)
            pmids = client.search_pmids("AE1/AE3")
        assert pmids == ["5"]
        raw_query = next(q for _, path, q in state.requests if path.endswith("esearch.fcgi"))
        assert "AE1%2FAE3" in raw_query  # encoded on the wire
        assert unquote(parse_qs(raw_query)["term"][0]) == "AE1/AE3 immunohisto*"

    def test_retry_then_success(self):
        state = EntrezState(markers={"ER": ["1"]}, fail_next=2)
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, retries=3, **FAST)
            assert client.search_pmids("ER") == ["1"]

    def test_ingest_error_after_retries(self):
        state = EntrezState(markers={"ER": ["1"]}, fail_next=10)
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, retries=3, **FAST)
            with pytest.raises(IngestError, match="marker=ER"):
                client.search_pmids("ER")

    def test_api_key_never_logged_or_raised(self, caplog):
        with socket.socket() as sock:  # a port nothing listens on: bound, then released
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client = EntrezClient(base_url=f"http://127.0.0.1:{port}", api_key="SECRETKEY123", retries=2, backoff_base=0.01)
        with pytest.raises(IngestError) as raised:
            client.search_pmids("ER")
        assert sum(r.levelname == "WARNING" for r in caplog.records) == 2
        assert "SECRETKEY123" not in caplog.text + str(raised.value)
        assert "failed after 2 attempts (marker=ER retstart=0): ConnectionRefusedError" in str(raised.value)

    def test_cap_bounds_validated(self):
        client = EntrezClient(base_url="http://localhost:1", requests_per_second=100.0)
        with pytest.raises(ValidationError):
            client.search_pmids("ER", cap=0)
        with pytest.raises(ValidationError):
            client.search_pmids("ER", cap=10_000)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("<eSearchResult><Count>12x</Count><IdList><Id>1</Id></IdList></eSearchResult>",
             "esearch Count '12x' is not a number (marker=ER retstart=0)"),
            ("<eSearchResult><Count>\u0661\u0662</Count><IdList><Id>1</Id></IdList></eSearchResult>",
             "esearch Count '\u0661\u0662' is not a number (marker=ER retstart=0)"),
            (f"<eSearchResult><Count>{'1' * 5000}</Count><IdList><Id>1</Id></IdList></eSearchResult>",
             f"esearch Count '{'1' * 39} is not a number (marker=ER retstart=0)"),
            ("<eSearchResult><ERROR>Invalid query syntax</ERROR></eSearchResult>",
             "esearch error (marker=ER retstart=0): Invalid query syntax"),
            ('<?xml version="1.0" encoding="x-unknown"?><eSearchResult><Count>0</Count></eSearchResult>',
             "esearch response not well-formed (marker=ER retstart=0)"),
            ('<?xml version="1.0" encoding="shift_jis"?><eSearchResult><Count>0</Count></eSearchResult>',
             "esearch response not well-formed (marker=ER retstart=0)"),
            ('<?xml version="1.0" encoding="idna"?><eSearchResult><Count>0</Count></eSearchResult>',
             "esearch response not well-formed (marker=ER retstart=0)"),
            ("<eSearchResult><Count>2</Count><IdList><Id>1</Id><Id>12a</Id></IdList></eSearchResult>",
             "esearch Id '12a' is not a PMID (marker=ER retstart=0)"),
            ("<eSearchResult><Count>1</Count><IdList><Id> 7</Id></IdList></eSearchResult>",
             "esearch Id ' 7' is not a PMID (marker=ER retstart=0)"),
            ("<eSearchResult><Count>1</Count><IdList><Id>\u0661\u0662</Id></IdList></eSearchResult>",
             "esearch Id '\u0661\u0662' is not a PMID (marker=ER retstart=0)"),
        ],
        ids=[
            "count-not-digits",
            "count-not-ascii",
            "count-past-int-digit-limit",
            "error-element",
            "unknown-encoding",  # LookupError escaped
            "multi-byte-encoding",  # ValueError escaped
            "encoding-that-fails-to-decode",  # UnicodeError escaped
            "id-not-digits",
            "id-with-space",
            "id-not-ascii",
        ],
    )
    def test_malformed_search_answer_raises_parse_error(self, monkeypatch, body, message):
        client = EntrezClient(base_url="http://localhost:1", **FAST)
        monkeypatch.setattr(client, "_get", lambda *a, **k: body.encode("utf-8"))
        with pytest.raises(EntrezParseError) as raised:
            client.search_pmids("ER")
        assert str(raised.value) == message


class TestFetchAbstracts:
    def test_single_pmid_with_title_and_abstract(self):
        state = EntrezState(articles={"11": ("A title", "An abstract body")})
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, **FAST)
            records, skipped = client.fetch_abstracts({"11": {"ER", "PR"}})
        assert skipped == []
        assert records[0].pmid == "11"
        assert records[0].title == "A title"
        assert records[0].abstract_text == "An abstract body"
        assert records[0].source_markers == {"ER", "PR"}

    def test_non_ascii_text_decoded_as_utf8(self):
        # the mock, like many servers, sends text/xml with no charset parameter
        state = EntrezState(articles={"11": ("Ki-67 in Müller glia", "β-catenin was positive in 3/5 cases.")})
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, **FAST)
            records, _ = client.fetch_abstracts({"11": {"ER"}})
        assert records[0].title == "Ki-67 in Müller glia"
        assert records[0].abstract_text == "β-catenin was positive in 3/5 cases."

    def test_missing_abstract_goes_to_skip_list(self):
        state = EntrezState(articles={"11": ("t", "body"), "12": ("no abstract", None)})
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, **FAST)
            records, skipped = client.fetch_abstracts({"11": {"ER"}, "12": {"ER"}})
        assert [r.pmid for r in records] == ["11"]
        assert skipped == ["12"]

    def test_batching_accounts_for_every_pmid(self):
        articles = {}
        for i in range(200):
            pmid = str(1000 + i)
            articles[pmid] = (f"t{i}", f"body {i}" if i % 7 else None)
        state = EntrezState(articles=articles)
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, batch_size=50, **FAST)
            records, skipped = client.fetch_abstracts(dict.fromkeys(sorted(articles), {"ER"}))
        assert len(records) + len(skipped) == 200
        fetches = [q for _, path, q in state.requests if path.endswith("efetch.fcgi")]
        assert len(fetches) == 4

    def test_unknown_pmid_skipped(self):
        state = EntrezState(articles={"11": ("t", "body")})
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, **FAST)
            records, skipped = client.fetch_abstracts({"11": {"ER"}, "404": {"ER"}})
        assert skipped == ["404"]

    def test_repeated_or_unrequested_pmid_in_response_ignored(self, monkeypatch):
        article = (
            "<PubmedArticle><MedlineCitation><PMID>{}</PMID><Article><ArticleTitle>t</ArticleTitle>"
            "<Abstract><AbstractText>body</AbstractText></Abstract></Article></MedlineCitation></PubmedArticle>"
        )
        body = "<PubmedArticleSet>" + "".join(article.format(p) for p in ("11", "99", "11")) + "</PubmedArticleSet>"
        client = EntrezClient(base_url="http://localhost:1", **FAST)
        monkeypatch.setattr(client, "_get", lambda *a, **k: body)
        records, skipped = client.fetch_abstracts({"11": {"ER"}, "12": {"PR"}})
        assert [(r.pmid, r.source_markers) for r in records] == [("11", {"ER"})]
        assert skipped == ["12"]

    def test_empty_input_rejected(self):
        client = EntrezClient(base_url="http://localhost:1")
        with pytest.raises(ValidationError):
            client.fetch_abstracts({})

    def test_malformed_xml_raises_parse_error(self, monkeypatch):
        client = EntrezClient(base_url="http://localhost:1", **FAST)
        monkeypatch.setattr(client, "_get", lambda *a, **k: "<PubmedArticleSet><oops></PubmedArticleSet>")
        with pytest.raises(EntrezParseError):
            client.fetch_abstracts({"11": {"ER"}})

    def test_unknown_xml_encoding_raises_parse_error(self, monkeypatch):
        # the declaration's encoding used to escape as LookupError
        body = b'<?xml version="1.0" encoding="x-unknown"?><PubmedArticleSet></PubmedArticleSet>'
        client = EntrezClient(base_url="http://localhost:1", **FAST)
        monkeypatch.setattr(client, "_get", lambda *a, **k: body)
        with pytest.raises(EntrezParseError, match=r"^efetch response not well-formed \(batch=11\.\.11\)$"):
            client.fetch_abstracts({"11": {"ER"}})


ESEARCH_ANSWER = (
    b'<?xml version="1.0" encoding="UTF-8" ?>\n<eSearchResult><Count>2</Count><RetMax>2</RetMax>'
    b"<RetStart>0</RetStart><IdList><Id>11</Id><Id>12</Id></IdList></eSearchResult>"
)
EFETCH_ANSWER = (
    b'<?xml version="1.0" encoding="UTF-8" ?>\n<PubmedArticleSet>'
    b"<PubmedArticle><MedlineCitation><PMID>11</PMID><Article><ArticleTitle>t</ArticleTitle><Abstract>"
    b"<AbstractText>body</AbstractText></Abstract></Article></MedlineCitation></PubmedArticle>"
    b"<PubmedArticle><MedlineCitation><PMID>12</PMID><Article><ArticleTitle>u</ArticleTitle><Abstract>"
    b"<AbstractText>more</AbstractText></Abstract></Article></MedlineCitation></PubmedArticle></PubmedArticleSet>"
)
_odd_parts = st.sampled_from(
    [b"<", b">", b"&", b"&#x661;", "\u0661\u0662".encode(), b" 7", b"12a", b"", b"<Id>", b"</Id>", b"<ERROR>x</ERROR>",
     b"x-unknown", b"shift_jis", b"idna", b"utf-16", b"rot13", b"latin-1"]
)


@st.composite
def mutated_entrez_answers(draw):
    """An esearch or efetch answer with a few spans, or one of its field values, replaced."""
    body = draw(st.sampled_from([ESEARCH_ANSWER, EFETCH_ANSWER]))
    parts = _odd_parts | st.binary(max_size=6) | st.text(max_size=6).map(str.encode)
    if draw(st.booleans()):
        fields = [(b'encoding="', b"UTF-8"), (b"<Count>", b"2"), (b"<Id>", b"11"), (b"<PMID>", b"12")]
        start, value = draw(st.sampled_from([*fields, (b"<AbstractText>", b"body")]))
        return body.replace(start + value, start + draw(parts), 1)
    body = bytearray(body)
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(body)))
        end = draw(st.integers(start, min(start + 12, len(body))))
        body[start:end] = draw(parts)
    return bytes(body)


@settings(deadline=None)
@given(body=st.binary() | mutated_entrez_answers())
def test_any_entrez_answer_is_a_result_or_a_parse_error(body):
    client = EntrezClient(base_url="http://localhost:1", **FAST)
    client._get = lambda *a, **k: body  # nothing is sent
    try:
        pmids = client.search_pmids("ER")
    except EntrezParseError:  # nothing else may escape
        pass
    else:
        assert all(p.isascii() and p.isdigit() for p in pmids) and len(set(pmids)) == len(pmids)
    sources = {"11": {"ER"}, "12": {"PR"}}
    try:
        records, skipped = client.fetch_abstracts(sources)
    except EntrezParseError:
        return
    assert sorted([r.pmid for r in records] + skipped) == ["11", "12"]  # each PMID fetched or skipped, once
    assert all(r.source_markers == sources[r.pmid] and r.abstract_text for r in records)


class FakeClock:
    """Stands in for the ``time`` module ``pubmed`` uses: sleeping advances the clock at once."""

    def __init__(self):
        self.now = 1000.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class SleepRecorder:
    """The real ``time`` module, but every ``sleep`` is recorded."""

    def __init__(self):
        self.sleeps = []

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        time.sleep(seconds)

    def __getattr__(self, name):
        return getattr(time, name)


def most_in_window(arrivals, width):
    """The largest number of arrivals that any half-open window [t, t + width) holds."""
    arrivals = sorted(arrivals)
    return max(sum(1 for b in arrivals if a <= b < a + width) for a in arrivals)


class TestThrottle:
    @pytest.fixture
    def clock(self, monkeypatch):
        fake = FakeClock()
        monkeypatch.setattr(pubmed, "time", fake)
        return fake

    def test_default_budgets(self, clock):
        for api_key, n in ((None, RPS_WITHOUT_KEY), ("k", RPS_WITH_KEY)):
            limiter = EntrezClient(base_url="http://x", api_key=api_key).limiter
            assert limiter.window == 1.0
            clock.sleeps.clear()
            for _ in range(int(n)):
                limiter.acquire()
            assert clock.sleeps == []
            limiter.acquire()
            assert clock.sleeps == [1.0]

    def test_limiter_spacing(self, clock):
        limiter = RateLimiter(4.0)  # n = 4, window 1 s
        first = clock.now
        for step in (0.0, 0.1, 0.3, 0.2):
            clock.now += step
            limiter.acquire()
        assert clock.sleeps == []  # n starts within 0.6 s do not sleep
        limiter.acquire()  # start n + 1 sleeps until the oldest start is one window old
        assert clock.sleeps == [pytest.approx(0.4)] and clock.now == pytest.approx(first + 1.0)
        limiter.acquire()  # the oldest start is now the one at +0.1
        assert clock.sleeps[1] == pytest.approx(0.1) and clock.now == pytest.approx(first + 1.1)
        clock.now += 5.0
        limiter.acquire()
        assert len(clock.sleeps) == 2

    @pytest.mark.parametrize("rate, n", [(2.5, 2), (0.5, 1), (3.0, 3), (10.0, 10)])
    def test_long_run_rate(self, clock, rate, n):
        limiter = RateLimiter(rate)
        assert limiter.window == pytest.approx(n / rate)
        first = clock.now
        starts = []
        for _ in range(20 * n + 1):
            limiter.acquire()
            starts.append(clock.now)
        assert starts[-1] - first == pytest.approx(20 * n / rate)
        assert most_in_window(starts, n / rate - 1e-9) == n

    def test_rate_past_the_largest_window_count_never_sleeps(self, clock):
        limiter = RateLimiter(1e300)  # floor(rate) does not fit a deque's maxlen
        for _ in range(100):
            limiter.acquire()
        assert clock.sleeps == []

    def test_threads_sharing_a_limiter_keep_the_window(self, clock):
        limiter = RateLimiter(10.0)
        first = clock.now
        threads = [threading.Thread(target=lambda: [limiter.acquire() for _ in range(25)]) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # 200 starts, 10 per window: a start that skipped the window would end the run early
        assert clock.sleeps == [1.0] * 19 and clock.now == first + 19.0

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValidationError):
            RateLimiter(rate)
        with pytest.raises(ValidationError):
            EntrezClient(base_url="http://x", requests_per_second=rate)

    def test_rate_ceiling_observed_by_server(self):
        articles = {str(100 + i): (f"t{i}", f"body {i}") for i in range(50)}
        state = EntrezState(articles=articles)
        rate, n = 5.0, 5
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, batch_size=5, requests_per_second=rate, backoff_base=0.01)
            client.fetch_abstracts(dict.fromkeys(articles, {"ER"}))
        arrivals = sorted(ts for ts, path, _ in state.requests if path.endswith("efetch.fcgi"))
        assert len(arrivals) == 10
        assert most_in_window(arrivals, n / rate - 0.05) <= n
        assert arrivals[n] - arrivals[0] >= n / rate - 0.05

    def test_retried_attempt_counts_against_the_window(self, clock):
        state = EntrezState(markers={"ER": ["1"]}, fail_next=2)
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, requests_per_second=2.0, retries=3, backoff_base=0.0)
            assert client.search_pmids("ER") == ["1"]
        assert len(state.requests) == 3  # one search, three attempts
        assert clock.sleeps == [1.0]  # the third attempt waited for the first to leave the window

    def test_fetch_within_the_budget_never_sleeps(self, tmp_path, monkeypatch):
        from ihcmine.cli import main

        recorder = SleepRecorder()
        monkeypatch.setattr(pubmed, "time", recorder)
        articles = {str(100 + i): (f"t{i}", f"body {i}") for i in range(30)}
        markers = ["ER", "PR", "CD34", "S100", "HMB45", "KI67"]
        state = EntrezState(markers={m: list(articles)[i::3] for i, m in enumerate(markers)}, articles=articles)
        marker_file = tmp_path / "markers.txt"
        marker_file.write_text("\n".join(markers) + "\n", encoding="utf-8")
        with run_entrez(state) as url:
            args = ["fetch", "--run-dir", str(tmp_path / "run"), "--markers", str(marker_file), "--entrez-base", url]
            assert main([*args, "--rps", "10"]) == 0
        assert len(state.requests) == 7  # six searches, one fetch
        assert recorder.sleeps == []


class TestDedupMerge:
    def test_union_of_source_markers(self):
        assert dedup_merge([("ER", ["1", "2"]), ("PR", ["1"])]) == {"1": {"ER", "PR"}, "2": {"ER"}}

    def test_first_seen_order(self):
        sources = dedup_merge([("ER", ["3", "1"]), ("PR", ["2", "1", "4"]), ("CD34", ["4", "3"])])
        assert list(sources) == ["3", "1", "2", "4"]

    def test_unique_total_matches_set_union(self):
        rng = random.Random(8)
        hits = []
        all_pmids = set()
        for marker in ("ER", "PR", "CD34"):
            pmids = {str(rng.randint(1, 40)) for _ in range(20)}
            all_pmids |= pmids
            hits.append((marker, sorted(pmids)))
        assert set(dedup_merge(hits)) == all_pmids

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["ER", "PR", "CD34"]),
                st.lists(st.integers(1, 30), max_size=10),
            ),
            max_size=5,
        )
    )
    def test_no_pmid_appears_twice(self, raw_hits):
        hits = [(marker, [str(p) for p in dict.fromkeys(pmids)]) for marker, pmids in raw_hits]
        sources = dedup_merge(hits)
        first_seen = list(dict.fromkeys(p for _, pmids in hits for p in pmids))
        assert list(sources) == first_seen
        for pmid, markers in sources.items():
            assert markers == {marker for marker, pmids in hits if pmid in pmids}
