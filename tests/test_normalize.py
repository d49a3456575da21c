"""Dictionary loading, exact nearest-neighbor search, term and table normalization."""

import hashlib
import itertools
import json
import logging
import math
import os
import random
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ihcmine import normalize as normalize_mod
from ihcmine.cli import main
from ihcmine.codec import decode, encode
from ihcmine.errors import DictionaryLoadError, GatewayError, ValidationError
from ihcmine.gateway import EmbeddingVector
from ihcmine.normalize import (
    EMBED_CHUNK,
    Concept,
    ConceptIndex,
    NormalizedRecord,
    TermNormalizer,
    load_index,
    normalize_table,
    table_surfaces,
)
from ihcmine.tables import parse_markdown_table

import mockservers
from mockservers import fake_embedding


def concept(cui, name, values):
    return Concept(cui=cui, name=name, vector=EmbeddingVector.of(values))


class FakeEmbedGateway:
    """Gateway stand-in: hash embeddings, with failure injection and a call counter."""

    def __init__(self, dim=8, fail_for=()):
        self.dim = dim
        self.fail_for = set(fail_for)
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        for text in texts:
            if text in self.fail_for:
                raise GatewayError(f"injected failure for {text!r}")
        return [EmbeddingVector.of(fake_embedding(t, self.dim)) for t in texts]


def build_index(names, dim=8):
    cuis = {name: f"C{i:07d}" for i, name in enumerate(sorted(names), start=1)}
    return ConceptIndex([concept(cuis[n], n, fake_embedding(n, dim)) for n in names]), cuis


class TestLoadIndex:
    def write(self, tmp_path, lines):
        path = tmp_path / "dict.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_three_entry_fixture(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                "C0000001\tmelanoma\tcanonical\t0.0,0.0",
                "C0000002\tmelanoma, malignant\talias\t3.0,4.0",
                "C0000003\tHMB45\tcanonical\t1.0,1.0",
            ],
        )
        index = load_index(path)
        assert len(index) == 3
        assert index.dim == 2

    def test_dim_mismatch_reports_line(self, tmp_path):
        path = self.write(
            tmp_path,
            ["C0000001\tmelanoma\tcanonical\t0.0,0.0", "C0000002\tnaevus\tcanonical\t1.0,2.0,3.0"],
        )
        with pytest.raises(DictionaryLoadError, match=":2:"):
            load_index(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DictionaryLoadError, match="empty dictionary"):
            load_index(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = self.write(tmp_path, ["C0000001\tmelanoma\tbogus\t0.0,0.0"])
        with pytest.raises(DictionaryLoadError, match="kind"):
            load_index(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            ["C0000001\tmelanoma\tcanonical\t0.0,0.0", "C0000001\tmelanoma\talias\t1.0,1.0"],
        )
        with pytest.raises(DictionaryLoadError, match="duplicate"):
            load_index(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("C0000002\tnaevus\tcanonical\t0.0,abc", "unparseable vector"),
            ("C0000002\tnaevus\tcanonical\tnan,0.0", "empty or non-finite vector"),
            ("C0000002\tnaevus\tcanonical\t0.0,inf", "empty or non-finite vector"),
            ("C0000002\tnaevus\tcanonical\t1e400,0.0", "empty or non-finite vector"),
            ("C0000002\tnaevus\tcanonical\t", "unparseable vector"),
            ("C0000002\tnaevus\tcanonical\t0.0,0.0,", "unparseable vector"),
            ("C0000002\tnaevus\tcanonical", "expected 4 or 5 tab-separated fields"),
            ("X0000002\tnaevus\tcanonical\t0.0,0.0", "CUI must be"),
            ("C000000\uff12\tnaevus\tcanonical\t0.0,0.0", "CUI must be"),
            ("C\u00b2\tnaevus\tcanonical\t0.0,0.0", "CUI must be"),
        ],
    )
    def test_bad_line_reports_its_number(self, tmp_path, line, message):
        path = self.write(tmp_path, ["C0000001\tmelanoma\tcanonical\t0.0,0.0", line])
        with pytest.raises(DictionaryLoadError, match=f":2: {message}"):
            load_index(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = self.write(
            tmp_path, ["C0000001\tmelanoma\tcanonical\t0.0,0.0", "", "   ", "C0000002\tnaevus\tcanonical\t0.0,x"]
        )
        with pytest.raises(DictionaryLoadError, match=":4: unparseable vector"):
            load_index(path)

    def test_matrix_equals_float_parse_bit_for_bit(self, tmp_path):
        rows = [
            ["0.1", "-0.0", "1e-310", "2.2250738585072014e-308"],
            ["0.30000000000000004", "123456789.123456789", "+1.5e+2", "-3E-5"],
            [" 7.25", "1.7976931348623157e308", "5e-324", "0.9999999999999999"],
        ]
        path = self.write(
            tmp_path, [f"C000000{i}\tname {i}\tcanonical\t{','.join(row)}" for i, row in enumerate(rows, start=1)]
        )
        expected = np.array([[float(v) for v in row] for row in rows], dtype=np.float64)
        assert load_index(path)._matrix.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.integers(1, 6).flatmap(
            lambda dim: st.lists(
                st.lists(
                    st.tuples(
                        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e-307, 1e-307)),
                        st.sampled_from(["{!r}", "{:.6f}", "{:e}", "+{!r}", " {!r}  ", "  {:e}"]),
                    ),
                    min_size=dim,
                    max_size=dim,
                ),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_matrix_equals_per_value_float_oracle(self, tmp_path, rows):
        texts = [[fmt.format(abs(v) if fmt.startswith("+") else v) for v, fmt in row] for row in rows]
        path = self.write(
            tmp_path, [f"C{i:07d}\tname {i}\tcanonical\t{','.join(row)}" for i, row in enumerate(texts, start=1)]
        )
        expected = np.array([[float(v) for v in row] for row in texts], dtype=np.float64)
        assert load_index(path)._matrix.tobytes() == expected.tobytes()

    def test_bad_value_past_the_readers_first_chunk_reports_its_line(self, tmp_path):
        lines = [f"C{i:07d}\tname {i}\tcanonical\t0.5,{i}" for i in range(1, 50_011)]
        lines[50_004] = "C9999999\tlate\tcanonical\t0.5,1.0.0"
        path = self.write(tmp_path, lines)
        with pytest.raises(DictionaryLoadError, match=":50005: unparseable vector"):
            load_index(path)

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank-only"])
    def test_empty_or_blank_file_warns_nothing(self, tmp_path, text):
        path = tmp_path / "dict.tsv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DictionaryLoadError, match="empty dictionary"):
                load_index(path)

    @pytest.mark.parametrize("value", ["1_0", "\uff11", "\u0661.5"], ids=["underscore", "full-width", "arabic-indic"])
    def test_numbers_float_accepts_but_the_reader_rejects(self, tmp_path, value):
        float(value)  # Python's float() takes it; the dictionary format does not
        lines = ["C0000001\tmelanoma\tcanonical\t0.0,0.0", f"C0000002\tnaevus\tcanonical\t{value},0.0"]
        path = self.write(tmp_path, lines)
        with pytest.raises(DictionaryLoadError, match=":2: unparseable vector"):
            load_index(path)

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_bytes(b"C0000001\tmelanoma\tcanonical\t0.0,0.0\ttumour\r\nC0000002\tER\tcanonical\t1.0,1.0\tmarker\r\n")
        index = load_index(path)
        assert len(index) == 2
        hits = index.nearest(EmbeddingVector.of([1.0, 1.0]), 2)
        assert [(c.name, d) for c, d in hits] == [("ER", 0.0), ("melanoma", math.sqrt(2.0))]

    def test_semantic_type_column(self, tmp_path):
        """A fifth column is accepted and changes neither the index nor its search."""
        lines = [
            "C0000001\tmelanoma\tcanonical\t0.0,0.0",
            "C0000002\tER\tcanonical\t1.0,1.0",
            "C0000003\tS100\talias\t0.5,0.4",
        ]
        (tmp_path / "typed").mkdir()
        typed_lines = [f"{line}\t{t}" for line, t in zip(lines, ["T191", "", "T116"])]
        typed = load_index(self.write(tmp_path / "typed", typed_lines))
        plain = load_index(self.write(tmp_path, lines))
        assert list(typed.concepts) == list(plain.concepts) and typed._matrix.tobytes() == plain._matrix.tobytes()
        queries = [EmbeddingVector.of(v) for v in ([0.9, 0.9], [0.0, 0.1], [0.45, 0.45])]
        for k in (1, 2, 3):
            assert typed.nearest_many(queries, k) == plain.nearest_many(queries, k)


def linear_scan(index, query, k):
    """The exact top k as a scan of every concept computes it: (distance, cui, name), ascending."""
    q = np.asarray(query.values, dtype=np.float64)
    scored = sorted(
        (float(np.sqrt(((index._matrix[i] - q) ** 2).sum())), c.cui, c.name) for i, c in enumerate(index.concepts)
    )
    return scored[:k]


def rewritten(damage):
    """Rewrites a cache entry after ``damage(header, sections)`` edited its header fields or its five
    sections' bytes in place. Section starts and the end follow the sections' sizes unless it set them."""

    def rewrite(entry):
        data = entry.read_bytes()
        magic, version, digest, n, dim, *starts, end = normalize_mod._HEADER.unpack_from(data)
        sections = [bytearray(data[a:b]) for a, b in zip(starts, [*starts[1:], end])]
        header = {"magic": magic, "format": version, "sha256": digest, "n": n, "dim": dim, "starts": None, "end": None}
        damage(header, sections)
        if header["starts"] is None:
            header["starts"] = list(itertools.accumulate([starts[0], *map(len, sections[:-1])]))
        if header["end"] is None:
            header["end"] = header["starts"][-1] + len(sections[-1])
        fields = [header[name] for name in ("magic", "format", "sha256", "n", "dim")]
        packed = normalize_mod._HEADER.pack(*fields, *header["starts"], header["end"])
        entry.write_bytes(packed.ljust(starts[0], b"\x00") + b"".join(sections))

    return rewrite


def section(index, dtype, change):
    """A damage that replaces section ``index``'s values, read as ``dtype``, with ``change`` of them."""

    def damage(header, sections):
        values = np.frombuffer(bytes(sections[index]), dtype).copy()
        sections[index][:] = np.asarray(change(values)).tobytes()

    return damage


def past_eof(header, **fields):
    """Sets header fields, and the section starts an entry of its n and dim has, so that the header
    agrees with itself but not with the file's size."""
    header.update(fields)
    header["starts"] = list(normalize_mod._sections(header["n"], header["dim"]))


class TestDictionaryCache:
    """``load_index`` keeps one parsed entry per dictionary path, used only for the same bytes."""

    LINES = [
        "C0000001\tmelanoma\tcanonical\t0.1,0.2,0.3\ttumour",
        "C0000002\tna\u00efve n\u00e6vus\talias\t-0.5,1e-310,2.5\ttumour",
        "C0000003\tER\tcanonical\t0.30000000000000004,-0.0,1.0\tmarker",
        "C0000003\tER\x00\ttrade_name\t0.3,0.0,1.5",
        "C0000004\tanti-HMB45 \U0001f52c\ttrade_name\t1.0,1.0,1.0\tmarker",
    ]

    @pytest.fixture
    def dictionary(self, tmp_path):
        return self.write(tmp_path)

    def write(self, tmp_path, newline="\n"):
        path = tmp_path / "dict.tsv"
        path.write_bytes("".join(line + newline for line in self.LINES).encode("utf-8"))
        return path

    @pytest.fixture
    def parses(self, monkeypatch):
        """Counts the text parses ``load_index`` makes."""
        calls = []
        parse = normalize_mod._parse

        def counted(*args):
            calls.append(args[0])
            return parse(*args)

        monkeypatch.setattr(normalize_mod, "_parse", counted)
        return calls

    def entries(self, cache_home):
        return sorted((cache_home / "ihcmine").glob("*")) if (cache_home / "ihcmine").exists() else []

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_miss_then_hit_gives_the_same_index(self, tmp_path, parses, cache_home, newline):
        dictionary = self.write(tmp_path, newline)
        cold = load_index(dictionary)
        assert len(parses) == 1 and len(self.entries(cache_home)) == 1
        warm = load_index(dictionary)
        assert len(parses) == 1
        assert [(c.cui, c.name) for c in warm.concepts] == [(c.cui, c.name) for c in cold.concepts]
        assert list(warm.concepts) == list(cold.concepts) and warm.concepts[3].name == "ER\x00"
        assert [warm.concepts[-2].name, warm.concepts[-1].name] == ["ER\x00", "anti-HMB45 \U0001f52c"]
        assert warm._matrix.dtype == np.float64 and warm._matrix.tobytes() == cold._matrix.tobytes()
        assert warm._sq_norms.tobytes() == cold._sq_norms.tobytes() and warm._rank.tolist() == cold._rank.tolist()
        rng = random.Random(7)
        queries = [EmbeddingVector.of([rng.uniform(-1, 2) for _ in range(3)]) for _ in range(20)]
        for k in (1, 2, 5):
            hits = warm.nearest_many(queries, k)
            assert hits == cold.nearest_many(queries, k)
            for query, found in zip(queries, hits):
                assert [(d, c.cui, c.name) for c, d in found] == linear_scan(warm, query, k)

    def test_edit_with_size_and_mtime_restored_misses(self, dictionary, parses, cache_home):
        before = load_index(dictionary)
        stat = dictionary.stat()
        dictionary.write_bytes(dictionary.read_bytes().replace(b"0.1,0.2,0.3", b"0.1,0.7,0.3"))
        os.utime(dictionary, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert dictionary.stat().st_size == stat.st_size and dictionary.stat().st_mtime_ns == stat.st_mtime_ns
        after = load_index(dictionary)
        assert len(parses) == 2
        assert before._matrix[0, 1] == 0.2 and after._matrix[0, 1] == 0.7
        assert len(self.entries(cache_home)) == 1  # the entry for this path was replaced
        assert load_index(dictionary)._matrix.tobytes() == after._matrix.tobytes() and len(parses) == 2

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda entry: entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2]), id="truncated"),
            pytest.param(lambda entry: entry.write_bytes(b"IHCDICT\x00 garbage" * 50), id="garbage"),
            pytest.param(lambda entry: entry.write_bytes(b""), id="empty"),
            pytest.param(rewritten(lambda h, s: s[0].__delitem__(slice(-8 * h["dim"], None))), id="short-matrix"),
            pytest.param(rewritten(section(0, "<f8", lambda m: m.astype("<f4"))), id="float32"),
            pytest.param(rewritten(lambda h, s: h.update(n=h["n"] * h["dim"], dim=1)), id="one-dimensional"),
            pytest.param(rewritten(section(0, "<f8", lambda m: np.where(m == 1.5, np.inf, m))), id="non-finite"),
            pytest.param(rewritten(lambda h, s: h.update(format=1)), id="format-1"),
            pytest.param(rewritten(lambda h, s: h.update(format=2)), id="format-2"),
            pytest.param(rewritten(lambda h, s: h.update(magic=b"IHCDICT\x01")), id="magic"),
            pytest.param(rewritten(lambda h, s: past_eof(h, n=h["n"] + 1)), id="n-past-eof"),
            pytest.param(rewritten(lambda h, s: past_eof(h, n=2**40)), id="huge-n-past-eof"),
            pytest.param(rewritten(lambda h, s: past_eof(h, dim=h["dim"] + 1)), id="dim-past-eof"),
            pytest.param(rewritten(lambda h, s: h.update(n=2**64 - 1, dim=2**64 - 1)), id="n-dim-overflow"),
            pytest.param(rewritten(lambda h, s: h.update(n=0)), id="no-rows"),
            pytest.param(rewritten(lambda h, s: past_eof(h, end=normalize_mod._sections(h["n"], h["dim"])[-1] + len(s[-1]) + 4096)), id="text-past-eof"),
            pytest.param(rewritten(lambda h, s: s[-1].__setitem__(slice(1, 2), b"x")), id="bad-cui"),
            pytest.param(rewritten(lambda h, s: s[-1].__setitem__(slice(-1, None), b"\xff")), id="text-not-utf8"),
            pytest.param(rewritten(section(3, "<i8", lambda o: o + (np.arange(len(o)) == 1))), id="cui-offsets-misplaced"),
            pytest.param(rewritten(section(3, "<i8", lambda o: o[[*range(len(o) - 3), -2, -3, -1]])), id="offsets-descending"),
            pytest.param(rewritten(section(3, "<i8", lambda o: o * 0)), id="offsets-zero"),
            pytest.param(rewritten(section(3, "<i8", lambda o: np.where(np.arange(len(o)) <= len(o) // 2, -1, o))), id="cui-offsets-negative"),
        ],
    )
    def test_damaged_entry_is_parsed_again_and_rewritten(self, dictionary, parses, cache_home, damage):
        expected = load_index(dictionary)
        (entry,) = self.entries(cache_home)
        damage(entry)
        loaded = load_index(dictionary)
        assert len(parses) == 2
        assert list(loaded.concepts) == list(expected.concepts)
        assert loaded._matrix.tobytes() == expected._matrix.tobytes()
        assert self.entries(cache_home) == [entry]
        load_index(dictionary)
        assert len(parses) == 2

    def test_given_digest_is_trusted_on_a_hit_and_checked_on_a_parse(self, dictionary, parses, cache_home, monkeypatch):
        digest = hashlib.sha256(dictionary.read_bytes()).hexdigest()
        with pytest.raises(DictionaryLoadError, match=r"dict\.tsv: changed while normalize ran$"):
            load_index(dictionary, sha256="0" * 64)
        assert self.entries(cache_home) == []
        cold = load_index(dictionary, sha256=digest)
        monkeypatch.setattr(normalize_mod, "file_sha256", lambda path: pytest.fail("the file was hashed again"))
        warm = load_index(dictionary, sha256=digest)
        assert len(parses) == 2 and warm._matrix.tobytes() == cold._matrix.tobytes()
        with pytest.raises(DictionaryLoadError, match="changed while normalize ran"):
            load_index(dictionary, sha256="0" * 64)  # misses the entry, parses, and finds other bytes

    def test_publishing_deletes_the_format_2_entry(self, dictionary, parses, cache_home):
        stale = cache_home / "ihcmine" / normalize_mod._cache_entry(dictionary).with_suffix(".npz").name
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"PK\x03\x04 a format-2 entry")
        other = stale.with_name("dictionary-0123456789abcdef0123456789abcdef.npz")  # another dictionary's
        other.write_bytes(b"PK\x03\x04")
        cold = load_index(dictionary)
        assert [p.name for p in self.entries(cache_home)] == sorted([other.name, stale.with_suffix(".bin").name])
        warm = load_index(dictionary)
        assert len(parses) == 1 and warm._matrix.tobytes() == cold._matrix.tobytes()

    def test_publishing_deletes_what_a_killed_writer_of_the_entry_left(self, dictionary, cache_home):
        entry = normalize_mod._cache_entry(dictionary)
        entry.parent.mkdir(parents=True)
        other = entry.parent / ".dictionary-0123456789abcdef0123456789abcdef.bin.x.partial"  # another dictionary's
        other.write_bytes(b"half")
        code = (
            "import os, sys; from ihcmine.store import atomic_file\n"
            "with atomic_file(sys.argv[1], 'wb') as handle:\n"
            "    handle.write(b'x' * 3000); handle.flush(); os._exit(3)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        assert subprocess.run([sys.executable, "-c", code, str(entry)], env=env).returncode == 3
        (temp,) = entry.parent.glob(f".{entry.name}.*.partial")
        assert temp.stat().st_size == 3000
        load_index(dictionary)
        assert sorted(p.name for p in entry.parent.iterdir()) == sorted([other.name, entry.name])

    def test_warm_load_builds_only_the_concepts_a_search_returns(self, dictionary, parses, monkeypatch):
        cold = load_index(dictionary)
        built = []
        check = normalize_mod._check_cui
        monkeypatch.setattr(normalize_mod, "_check_cui", lambda cui: built.append(cui) or check(cui))
        warm = load_index(dictionary)
        assert len(parses) == 1 and built == []
        queries = [EmbeddingVector.of(v) for v in ([0.3, 0.0, 1.4], [1.0, 1.0, 1.0])]
        hits = warm.nearest_many(queries, k=1)
        assert [(c.cui, c.name) for (c, _), in hits] == [("C0000003", "ER\x00"), ("C0000004", "anti-HMB45 \U0001f52c")]
        assert built == ["C0000003", "C0000004"]
        assert [[(c.cui, c.name, d) for c, d in found] for found in hits] == [
            [(c.cui, c.name, d) for c, d in found] for found in cold.nearest_many(queries, k=1)
        ]

    def test_unwritable_cache_directory_still_loads(self, dictionary, parses, tmp_path, monkeypatch, caplog):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        with caplog.at_level(logging.DEBUG, logger="ihcmine.normalize"):
            assert len(load_index(dictionary)) == len(self.LINES)
        assert [r.levelno for r in caplog.records if "not written" in r.getMessage()] == [logging.DEBUG]
        assert len(load_index(dictionary)) == len(self.LINES) and len(parses) == 2

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["C0000001\tmelanoma\tcanonical\t0.0,0.0", "C0000002\tnaevus\tcanonical\t1.0,2.0,3.0"], ":2: vector dim"),
            (["C0000001\tmelanoma\tcanonical\t0.0,0.0", "C0000002\tnaevus\tcanonical\tnan,0.0"], ":2: empty or non"),
            (["C0000001\tmelanoma\tcanonical\t0.0,0.0", "C0000001\tmelanoma\talias\t0.0,0.0"], ":2: duplicate"),
        ],
        ids=["dim", "non-finite", "duplicate"],
    )
    def test_malformed_dictionary_writes_no_entry(self, tmp_path, cache_home, lines, message):
        path = tmp_path / "dict.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DictionaryLoadError, match=message):
            load_index(path)
        assert self.entries(cache_home) == []

    @pytest.mark.parametrize("field", [1, 3, 4])
    def test_non_utf8_dictionary_reports_its_line(self, tmp_path, cache_home, field):
        lines = [line.encode("utf-8") for line in self.LINES]
        parts = lines[2].split(b"\t")
        parts[field] += b"\xff"
        lines[2] = b"\t".join(parts)
        path = tmp_path / "dict.tsv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DictionaryLoadError, match=r"dict\.tsv:3: not valid UTF-8$"):
            load_index(path)
        assert self.entries(cache_home) == []

    def test_concurrent_loads_leave_one_valid_entry(self, tmp_path, parses, cache_home):
        rng = random.Random(3)
        path = tmp_path / "dict.tsv"
        path.write_text(
            "".join(f"C{i:07d}\tname {i}\tcanonical\t{','.join(repr(rng.random()) for _ in range(32))}\n" for i in range(2000)),
            encoding="utf-8",
        )
        code = "import sys; from ihcmine.normalize import load_index; load_index(sys.argv[1])"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        procs = [subprocess.Popen([sys.executable, "-c", code, str(path)], env=env) for _ in range(3)]
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0, 0]
        (entry,) = self.entries(cache_home)
        assert entry.suffix == ".bin"
        loaded = load_index(path)
        assert parses == []
        keys, matrix = normalize_mod._parse(path, hashlib.sha256())
        assert [(c.cui, c.name) for c in loaded.concepts] == keys and loaded._matrix.tobytes() == matrix.tobytes()


class TestNearest:
    def test_self_match_distance_zero(self):
        index, _ = build_index(["melanoma", "naevus", "carcinoma"])
        query = EmbeddingVector.of(fake_embedding("naevus"))
        top, distance = index.nearest(query, 1)[0]
        assert top.name == "naevus"
        assert distance == 0.0

    def test_hand_arithmetic_2d(self):
        index = ConceptIndex([concept("C0000001", "a", [0.0, 0.0]), concept("C0000002", "b", [3.0, 4.0])])
        hits = index.nearest(EmbeddingVector.of([0.0, 1.0]), 2)
        assert (hits[0][0].name, hits[0][1]) == ("a", 1.0)
        assert hits[1][0].name == "b"
        assert hits[1][1] == pytest.approx(math.sqrt(18.0))
        assert index.nearest(EmbeddingVector.of([3.0, 4.0]), 1)[0][1] == 0.0

    def test_k_equals_n_sorted(self):
        rng = random.Random(5)
        names = [f"term {i}" for i in range(40)]
        index, _ = build_index(names)
        query = EmbeddingVector.of([rng.random() for _ in range(8)])
        hits = index.nearest(query, len(names))
        distances = [d for _, d in hits]
        assert distances == sorted(distances)
        assert len(hits) == 40

    def test_tie_break_by_cui_then_name(self):
        vec = [0.5, 0.5]
        index = ConceptIndex(
            [
                concept("C0000009", "zeta", vec),
                concept("C0000002", "beta", vec),
                concept("C0000002", "alpha", vec),
            ]
        )
        hits = index.nearest(EmbeddingVector.of([0.0, 0.0]), 3)
        assert [(c.cui, c.name) for c, _ in hits] == [
            ("C0000002", "alpha"),
            ("C0000002", "beta"),
            ("C0000009", "zeta"),
        ]

    def test_tie_break_keeps_trailing_nul_in_names(self):
        vec = [0.5, 0.5]
        index = ConceptIndex([concept("C0000001", "ER\x00", vec), concept("C0000001", "ER", vec)])
        hits = index.nearest(EmbeddingVector.of([0.0, 0.0]), 2)
        assert [c.name for c, _ in hits] == ["ER", "ER\x00"]

    def test_dim_mismatch_rejected(self):
        index, _ = build_index(["melanoma"])
        with pytest.raises(ValidationError):
            index.nearest(EmbeddingVector.of([0.0, 1.0]), 1)

    def test_k_must_be_positive(self):
        index, _ = build_index(["melanoma"])
        with pytest.raises(ValidationError):
            index.nearest(EmbeddingVector.of(fake_embedding("melanoma")), 0)

    def test_matches_linear_scan_oracle(self):
        rng = random.Random(42)
        dim = 12
        concepts = [
            concept(f"C{i:07d}", f"name {i}", [rng.random() for _ in range(dim)]) for i in range(300)
        ]
        index = ConceptIndex(concepts)
        for _ in range(30):
            query = EmbeddingVector.of([rng.random() for _ in range(dim)])
            q = np.asarray(query.values, dtype=np.float64)
            scanned = sorted(
                (
                    (float(np.sqrt(((np.asarray(c.vector.values, dtype=np.float64) - q) ** 2).sum())), c.cui, c.name)
                    for c in concepts
                ),
            )[:10]
            hits = index.nearest(query, 10)
            assert [(d, c.cui, c.name) for c, d in hits] == scanned


    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_batched_search_matches_linear_scan_oracle(self, data):
        """Duplicates, ulp-apart rows and large common offsets, every k."""
        dim = data.draw(st.integers(1, 16), label="dim")
        # 1e3 and 1e6 make the GEMM expansion cancel badly; 1e155 overflows its norms
        offset = data.draw(st.sampled_from([0.0, 1e3, -1e3, 1e6, 1e155]), label="offset")
        coords = st.lists(st.floats(-4, 4), min_size=dim, max_size=dim)
        bases = [np.array(v) + offset for v in data.draw(st.lists(coords, min_size=1, max_size=5), label="bases")]
        concepts = []
        for i in range(data.draw(st.integers(1, 14), label="n")):
            vector = data.draw(st.sampled_from(bases)).copy()
            j = data.draw(st.integers(0, dim - 1))
            for _ in range(data.draw(st.integers(0, 2))):
                vector[j] = np.nextafter(vector[j], data.draw(st.sampled_from([-np.inf, np.inf])))
            cui = f"C{data.draw(st.integers(1, 3)):07d}"
            concepts.append(concept(cui, f"name {(7 * i) % 15}", vector))
        index = ConceptIndex(concepts)
        queries = [EmbeddingVector.of(v) for v in bases]
        queries += [EmbeddingVector.of(np.array(v) + offset) for v in data.draw(st.lists(coords, max_size=3))]

        def oracle(query, k):
            q = np.asarray(query.values, dtype=np.float64)
            scanned = sorted(
                (float(np.sqrt(((np.asarray(c.vector.values, dtype=np.float64) - q) ** 2).sum())), c.cui, c.name)
                for c in concepts
            )
            return [(d.hex(), cui, name) for d, cui, name in scanned[:k]]

        def bits(hits):
            return [(d.hex(), c.cui, c.name) for c, d in hits]

        for k in range(1, len(concepts) + 2):
            batched = index.nearest_many(queries, k)
            assert len(batched) == len(queries)
            for query, hits in zip(queries, batched):
                assert bits(hits) == bits(index.nearest(query, k))
                assert bits(hits) == oracle(query, k)


    def test_threads_sharing_one_index_match_the_oracle(self, tmp_path):
        """Each thread reuses its own score buffers, growing them across batch sizes, while the other searches."""
        rng = random.Random(11)
        dim = 6
        path = tmp_path / "dict.tsv"
        path.write_text(
            "".join(f"C{i % 150:07d}\tname {i}\tcanonical\t{','.join(repr(rng.random()) for _ in range(dim))}\n" for i in range(300)),
            encoding="utf-8",
        )
        load_index(path)
        index = load_index(path)  # the mapped entry
        batches = [[EmbeddingVector.of([rng.random() for _ in range(dim)]) for _ in range(size)] for size in (1, 7, 64, 3, 64, 20)]
        expected = [[linear_scan(index, query, 4) for query in batch] for batch in batches]
        failures = []

        def search(order):
            try:
                for _ in range(5):
                    for i in order:
                        got = [[(d, c.cui, c.name) for c, d in hits] for hits in index.nearest_many(batches[i], 4)]
                        if got != expected[i]:
                            failures.append(i)
            except Exception as exc:  # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=search, args=(order,)) for order in ([0, 1, 2, 3, 4, 5], [5, 4, 2, 3, 1, 0])]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestTermNormalizer:
    def test_identity_surface_distance_zero(self):
        index, cuis = build_index(["melanoma", "breast carcinoma"])
        normalizer = TermNormalizer(FakeEmbedGateway(), index)
        normalizer.prefetch(["melanoma"])
        entity = normalizer.normalize_term("melanoma")
        assert entity.cui == cuis["melanoma"]
        assert entity.matched_name == "melanoma"
        assert entity.distance == 0.0

    def test_cache_skips_gateway(self):
        index, _ = build_index(["melanoma"])
        gateway = FakeEmbedGateway()
        normalizer = TermNormalizer(gateway, index)
        normalizer.prefetch(["melanoma", "melanoma"])
        normalizer.prefetch(["melanoma"])
        assert normalizer.normalize_term("melanoma") is not None
        assert gateway.calls == 1

    def test_blank_surfaces_send_no_request_and_read_none(self):
        index, _ = build_index(["melanoma"])
        gateway = FakeEmbedGateway()
        normalizer = TermNormalizer(gateway, index)
        normalizer.prefetch(["", "  ", "\t"])
        assert gateway.calls == 0
        assert [normalizer.normalize_term(s) for s in ("", "  ", "\t")] == [None, None, None]

    def test_gateway_failure_reads_none(self):
        index, _ = build_index(["melanoma"])
        normalizer = TermNormalizer(FakeEmbedGateway(fail_for={"naevus"}), index)
        assert normalizer.normalize_term("naevus") is None  # never prefetched
        normalizer.prefetch(["naevus"])
        assert normalizer.normalize_term("naevus") is None

    def test_failed_surface_asked_for_once(self):
        index, cuis = build_index(["melanoma"])
        gateway = FakeEmbedGateway(fail_for={"naevus"})
        normalizer = TermNormalizer(gateway, index)
        normalizer.prefetch(["naevus", "melanoma"])
        assert gateway.calls == 3  # the chunk, then naevus and melanoma one at a time
        for _ in range(3):
            normalizer.prefetch(["naevus", "melanoma"])
        assert gateway.calls == 3
        assert normalizer.normalize_term("naevus") is None
        assert normalizer.normalize_term("melanoma").cui == cuis["melanoma"]


class TestNormalizeTable:
    GOLD = (
        "| Tumor type | Tumor site | S100A4 (epithelial) | S100A4 (stromal) |\n"
        "| --- | --- | --- | --- |\n"
        "| Clear cell renal cell carcinoma | Kidney | 17/155 | 129/155 |\n"
        "| Chromophobe renal cell carcinoma | Kidney | NA | 0/13 |\n"
    )

    def build(self, fail_for=()):
        names = ["Clear cell renal cell carcinoma", "Chromophobe renal cell carcinoma", "Kidney", "S100A4"]
        index, cuis = build_index(names)
        gateway = FakeEmbedGateway(fail_for=fail_for)
        return TermNormalizer(gateway, index), cuis

    def test_one_record_per_count_cell_sharing_tumour_cui(self):
        normalizer, cuis = self.build()
        table = parse_markdown_table(self.GOLD, pmid="21691200")
        records = normalize_table(table, normalizer)
        first_row = [r for r in records if r.tumour_type == "Clear cell renal cell carcinoma"]
        assert len(first_row) == 2
        assert {r.qualifier for r in first_row} == {"epithelial", "stromal"}
        assert {r.tumour_type_cui for r in first_row} == {cuis["Clear cell renal cell carcinoma"]}
        assert {r.marker_cui for r in first_row} == {cuis["S100A4"]}

    def test_missing_cells_skipped(self):
        normalizer, _ = self.build()
        table = parse_markdown_table(self.GOLD, pmid="21691200")
        records = normalize_table(table, normalizer)
        assert len(records) == 3  # the NA epithelial cell emits nothing

    def test_unmappable_tumour_flagged_not_dropped(self):
        normalizer, _ = self.build(fail_for={"Chromophobe renal cell carcinoma"})
        table = parse_markdown_table(self.GOLD, pmid="21691200")
        records = normalize_table(table, normalizer)
        flagged = [r for r in records if r.tumour_type == "Chromophobe renal cell carcinoma"]
        assert len(flagged) == 1
        assert flagged[0].tumour_type_cui is None
        assert "unmapped_tumour_type" in flagged[0].flags

    def test_round_trip_serialization(self):
        normalizer, _ = self.build()
        table = parse_markdown_table(self.GOLD, pmid="21691200")
        for record in normalize_table(table, normalizer):
            assert decode(NormalizedRecord, encode(record)) == record

    def test_invalid_count_flagged(self):
        normalizer, _ = self.build()
        text = (
            "| Tumor type | Tumor site | S100A4 |\n| --- | --- | --- |\n"
            "| Clear cell renal cell carcinoma | Kidney | 73/22 |\n| Clear cell renal cell carcinoma | Kidney | 0/0 |\n"
        )
        records = normalize_table(parse_markdown_table(text, pmid="1"), normalizer)
        assert [r.flags for r in records] == [["invalid_count"], ["invalid_count"]]

    def test_blank_tumour_type_flagged_without_a_request(self):
        normalizer, cuis = self.build()
        text = "| Tumor type | Tumor site | S100A4 |\n| --- | --- | --- |\n|  | Kidney | 73/22 |\n"
        [record] = normalize_table(parse_markdown_table(text, pmid="1"), normalizer)
        assert (record.tumour_type, record.tumour_type_cui, record.marker_cui) == ("", None, cuis["S100A4"])
        assert record.flags == ["invalid_count", "unmapped_tumour_type"]
        assert normalizer.gateway.calls == 1  # Kidney and S100A4, in one chunk

    def test_max_distance_flags_low_confidence(self):
        names = ["Clear cell renal cell carcinoma", "Kidney", "S100A4"]
        index, _ = build_index(names)
        normalizer = TermNormalizer(FakeEmbedGateway(), index, max_distance=1e-9)
        text = "| Tumor type | Tumor site | S100A4 |\n| --- | --- | --- |\n| clear cell RCC | Kidney | 17/155 |\n"
        records = normalize_table(parse_markdown_table(text, pmid="1"), normalizer)
        assert "low_confidence_tumour_type" in records[0].flags
        assert records[0].tumour_type_cui is not None


class TestPrefetch:
    """Batched embedding of a stage's distinct surfaces before its tables are normalized."""

    def tables(self):
        """Five tables sharing sites and markers; 100 distinct tumour types, one all-NA row."""
        tables = []
        for t in range(5):
            lines = ["| Tumor type | Tumor site | ER | PR (nuclear) |", "| --- | --- | --- | --- |"]
            for r in range(20):
                lines.append(f"| tumour {t}-{r} | site {r % 3} | {r}/20 | 1/{r + 1} |")
            lines.append(f"| never looked up {t} | site 9 | NA | NA |")
            tables.append(parse_markdown_table("\n".join(lines) + "\n", pmid=str(t)))
        return tables

    def build(self, fail_for=()):
        names = [f"tumour {t}-{r}" for t in range(5) for r in range(20)] + ["site 0", "site 1", "site 2", "ER", "PR"]
        index, _ = build_index(names)
        gateway = FakeEmbedGateway(fail_for=fail_for)
        return TermNormalizer(gateway, index), gateway

    def prefetched(self, normalizer, tables):
        normalizer.prefetch(s for table in tables for s in table_surfaces(table))
        return [r for table in tables for r in normalize_table(table, normalizer)]

    def test_distinct_surfaces_embedded_in_chunks(self):
        tables = self.tables()
        unique = {s for table in tables for s in table_surfaces(table)}
        assert len(unique) == 100 + 3 + 2
        assert "never looked up 0" not in unique and "site 9" not in unique
        normalizer, gateway = self.build()
        self.prefetched(normalizer, tables)
        assert gateway.calls == math.ceil(len(unique) / EMBED_CHUNK) == 2

    def test_same_records_as_one_surface_at_a_time(self):
        """The stage-wide prefetch gives the records that normalizing each table on its own gives."""
        tables = self.tables()
        per_table, per_table_gateway = self.build()
        expected = [r for table in tables for r in normalize_table(table, per_table)]
        assert per_table_gateway.calls == len(tables)  # each table's 25 distinct surfaces fit one chunk
        normalizer, _ = self.build()
        assert self.prefetched(normalizer, tables) == expected

    def test_failure_in_a_chunk_unmaps_only_the_failing_surface(self):
        tables = self.tables()
        normalizer, gateway = self.build(fail_for={"tumour 1-7"})
        records = self.prefetched(normalizer, tables)
        unmapped = [r for r in records if r.tumour_type_cui is None]
        assert {r.tumour_type for r in unmapped} == {"tumour 1-7"}
        assert all(r.flags == ["unmapped_tumour_type"] for r in unmapped)
        assert all(r.marker_cui and r.tumour_site_cui for r in records)
        assert all(r.tumour_type_cui for r in records if r.tumour_type != "tumour 1-7")
        # two chunk requests; the failed chunk's 63 good surfaces once each; the failing
        # surface once, though its row has two count cells: the failure is cached
        assert gateway.calls == 2 + (EMBED_CHUNK - 1) + 1

    def test_non_finite_vector_from_the_endpoint_unmaps_its_surface(self, demo_env, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        for args in demo_env.all_stage_args(run_dir)[:3]:
            assert main(args) == 0, args
        monkeypatch.setattr(  # the server's json.dumps writes NaN, which json.loads reads back
            mockservers, "fake_embedding", lambda text, dim=8: [math.nan] * dim if text == "melanoma" else fake_embedding(text, dim)
        )
        assert main(demo_env.normalize_args(run_dir)) == 0
        records = [decode(NormalizedRecord, json.loads(line)) for line in (run_dir / "normalized.jsonl").read_text().splitlines()]
        melanoma = [r for r in records if r.tumour_type == "melanoma"]
        assert melanoma and all(r.tumour_type_cui is None and "unmapped_tumour_type" in r.flags for r in melanoma)
        assert all(r.tumour_type_cui for r in records if r.tumour_type != "melanoma")
