"""Gateway wire behavior against a live mock endpoint, plus prompt templates."""

import hashlib
import json
import math
import shutil
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihcmine import gateway
from ihcmine.classify import iter_classified
from ihcmine.domain import AbstractRecord
from ihcmine.errors import EmptyOutputError, GatewayError, GatewayProtocolError, ValidationError
from ihcmine.gateway import PROMPTS, EmbeddingVector, LlmGateway, template_hash

from mockservers import LlmState, ScriptedState, run_llm, run_scripted


def record():
    return AbstractRecord(
        pmid="123",
        title="ER in breast tumours",
        abstract_text="ER was positive in 5/10 cases of breast carcinoma (breast).",
        source_markers={"ER"},
    )


def no_counts():
    """A record the mock server labels Exclude: its text holds no X/Y count."""
    return AbstractRecord(pmid="7", title="t", abstract_text="ER staining was described.", source_markers={"ER"})


def capturing_gateway(model_id="m"):
    """A gateway whose chat bodies are appended to the list returned with it; nothing goes over the wire."""
    llm = LlmGateway("http://127.0.0.1:9", model_id=model_id)
    sent = []
    llm._post = lambda url, body: sent.append(body) or {"choices": [{"message": {"content": "Include"}}]}
    return llm, sent


def sent_body(prompt, rec, model_id="m"):
    llm, sent = capturing_gateway(model_id)
    llm.chat(prompt, rec)
    return json.loads(sent[0])


def sent_prompt(prompt, rec):
    return sent_body(prompt, rec)["messages"][1]["content"]


@pytest.fixture
def llm():
    state = LlmState()
    with run_llm(state) as url:
        yield state, url


class TestChat:
    def test_echo_include(self, llm):
        state, url = llm
        state.classify_fn = lambda content: "Include"
        gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
        assert gateway.chat("classify", no_counts()) == "Include"

    def test_retry_after_two_500s(self, llm):
        state, url = llm
        state.fail_next = 2
        gateway = LlmGateway(url, model_id="m", retries=3, backoff_base=0.01)
        assert gateway.chat("classify", no_counts()) == "Exclude"
        assert len(state.requests) == 3

    def test_failure_after_retries_exhausted(self, llm):
        state, url = llm
        state.fail_next = 10
        gateway = LlmGateway(url, model_id="m", retries=3, backoff_base=0.01)
        with pytest.raises(GatewayError):
            gateway.chat("classify", record())

    def test_empty_completion_raises(self, llm):
        state, url = llm
        state.empty_next = 1
        gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
        with pytest.raises(EmptyOutputError):
            gateway.chat("classify", no_counts())

    def test_max_new_tokens_serialized_exactly(self, llm):
        state, url = llm
        gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
        gateway.chat("classify", record())
        assert state.requests[-1]["body"]["max_tokens"] == PROMPTS["classify"][1] == 4

    def test_bounded_concurrency(self, llm):
        """In-flight calls are bounded by the caller's pool, here classify's max_workers."""
        state, url = llm
        state.delay = 0.05
        gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
        records = [
            AbstractRecord(pmid=str(i), title="t", abstract_text=f"abstract {i}", source_markers={"ER"})
            for i in range(8)
        ]
        results = list(iter_classified(records, gateway, max_workers=2))
        assert len(results) == len(state.requests) == 8
        assert state.max_active <= 2


class TestWirePayload:
    def test_identical_requests_identical_bytes(self):
        llm, sent = capturing_gateway()
        llm.chat("classify", record())
        llm.chat("classify", record())
        assert sent[0] == sent[1]

    def test_payload_shape(self):
        for prompt, max_tokens in [("classify", 4), ("extract", 1024)]:
            body = sent_body(prompt, record(), model_id="gemma-2-ft")
            assert body["model"] == "gemma-2-ft"
            assert body["max_tokens"] == max_tokens
            assert body["temperature"] == 0.0
            assert [m["role"] for m in body["messages"]] == ["system", "user"]
            assert body["messages"][0]["content"] == gateway.SYSTEM_PROMPT


class TestEmbed:
    def test_three_vectors_uniform_dim(self, llm):
        state, url = llm
        state.emb_dim = 768
        gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
        vectors = gateway.embed(["a", "b", "c"])
        assert len(vectors) == 3
        assert {v.dim for v in vectors} == {768}

    def test_duplicate_inputs_identical_vectors(self, llm):
        state, url = llm
        gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
        one, two = gateway.embed(["same", "same"])
        assert one == two

    def test_empty_string_rejected(self, llm):
        _, url = llm
        gateway = LlmGateway(url, model_id="m")
        with pytest.raises(ValidationError):
            gateway.embed([""])

    def test_empty_batch_rejected(self, llm):
        _, url = llm
        gateway = LlmGateway(url, model_id="m")
        with pytest.raises(ValidationError):
            gateway.embed([])

    def test_dim_mismatch_is_protocol_error(self, llm):
        state, url = llm
        state.mixed_dims = True
        gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
        with pytest.raises(GatewayProtocolError):
            gateway.embed(["a", "b"])


@pytest.mark.parametrize(
    "call, answer",
    [
        ("chat", {"choices": [{"message": {"content": 5}}]}),
        ("chat", {"choices": [{"message": {"content": ["Include"]}}]}),
        ("embed", {"data": [{"index": 0, "embedding": ["abc", 1.0]}, {"index": 1, "embedding": [0.0, 1.0]}]}),
        ("embed", {"data": [{"index": 0, "embedding": [math.nan, 1.0]}, {"index": 1, "embedding": [0.0, 1.0]}]}),
        ("embed", {"data": [{"index": 0, "embedding": [10**400, 1.0]}, {"index": 1, "embedding": [0.0, 1.0]}]}),
        ("embed", {"data": [{"index": 1, "embedding": [1.0, 1.0]}, {"index": 1, "embedding": [0.0, 1.0]}]}),
        ("embed", {"data": [{"index": True, "embedding": [1.0, 1.0]}, {"index": False, "embedding": [0.0, 1.0]}]}),
        ("embed", {"data": [{"index": 0.0, "embedding": [1.0, 1.0]}, {"index": 1.0, "embedding": [0.0, 1.0]}]}),
        ("embed", {"data": [{"index": 0, "embedding": [1.0, 1.0]}, {"index": True, "embedding": [0.0, 1.0]}]}),
        ("embed", {"data": [{"index": 0, "embedding": "12"}, {"index": 1, "embedding": [0.0, 1.0]}]}),
        ("embed", {"data": [{"index": 0, "embedding": {"3": 1, "4": 2}}, {"index": 1, "embedding": [0.0, 1.0]}]}),
        ("embed", {"data": [{"index": 0, "embedding": [True, False]}, {"index": 1, "embedding": [0.0, 1.0]}]}),
        ("embed", {"data": [{"index": 0, "embedding": ["1", "2"]}, {"index": 1, "embedding": [0.0, 1.0]}]}),
        ("chat", {"choices": [{"message": {"content": "Include \ud83d"}}]}),
    ],
    ids=[
        "chat-number",
        "chat-list",
        "embed-string",
        "embed-nan",
        "embed-huge-integer",
        "embed-repeated-index",
        "embed-boolean-indices",  # [False, True] == [0, 1] accepted them, reordered
        "embed-float-indices",
        "embed-one-boolean-index",
        "embed-string-of-digits",  # float() over its characters read (1.0, 2.0)
        "embed-object",  # float() over its keys read (3.0, 4.0)
        "embed-booleans",  # read (1.0, 0.0)
        "embed-numeric-strings",
        "chat-lone-surrogate",  # valid JSON, but no UTF-8 file can hold it
    ],
)
def test_answer_of_the_wrong_shape_is_a_protocol_error(monkeypatch, call, answer):
    gateway = LlmGateway("http://127.0.0.1:9", model_id="m")
    monkeypatch.setattr(gateway, "_post", lambda url, body: answer)
    with pytest.raises(GatewayProtocolError):
        gateway.chat("classify", record()) if call == "chat" else gateway.embed(["a", "b"])


@pytest.mark.parametrize(
    "answer, error, message",
    [
        (
            b"HTTP/1.1 400 Bad Request\r\nContent-Length: 300\r\n\r\n" + b"e" * 200 + b"f" * 100,
            GatewayError,
            "HTTP 400 from {url}: " + "e" * 200,
        ),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello", GatewayProtocolError, "non-JSON response from {url}"),
        (None, GatewayError, "request to {url} failed after 2 attempts: ConnectionRefusedError: "),
    ],
    ids=["status-not-retryable", "not-json", "connection-refused"],
)
def test_failed_request_is_a_gateway_error(answer, error, message):
    state = ScriptedState([[answer]] if answer else [])
    with run_scripted(state) as base:
        if answer is None:  # a port nothing listens on
            with socket.socket() as free:
                free.bind(("127.0.0.1", 0))
                base = f"http://127.0.0.1:{free.getsockname()[1]}"
        llm = LlmGateway(base, model_id="m", retries=2, backoff_base=0.01)
        with pytest.raises(error) as raised:
            llm.chat("classify", record())
        llm.close()
    assert type(raised.value) is error
    assert str(raised.value).startswith(message.format(url=base + "/v1/chat/completions"))
    assert "f" * 100 not in str(raised.value)
    assert len(state.requests) == (1 if answer else 0)  # a status that is not retryable is not retried


# Any value json.loads can return (NaN and the infinities included), with keys that often
# name the real answer's fields, plus answers of the real shape with odd leaves.
_keys = st.sampled_from(["choices", "message", "content", "data", "index", "embedding"]) | st.text(max_size=3)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_keys, inner, max_size=3),
    max_leaves=12,
)
chat_answers = st.fixed_dictionaries(
    {"choices": st.lists(st.fixed_dictionaries({"message": st.fixed_dictionaries({"content": json_values})}), max_size=2)}
)


@st.composite
def embedding_answers(draw):
    """A valid answer for two texts, in any order, with at most one kind of part replaced."""
    vectors = st.lists(st.floats(-1e6, 1e6) | st.integers(-9, 9), min_size=2, max_size=2)
    items = draw(st.permutations([{"index": i, "embedding": draw(vectors)} for i in range(2)]))
    odd_index = st.sampled_from([0, 1, -1, 2, False, True, 0.0, 1.0]) | json_values
    change = draw(st.sampled_from(["none", "index", "indices", "embedding", "length"]))
    if change == "index":
        draw(st.sampled_from(items))["index"] = draw(odd_index)
    elif change == "indices":
        items[0]["index"], items[1]["index"] = draw(odd_index), draw(odd_index)
    elif change == "embedding":
        draw(st.sampled_from(items))["embedding"] = draw(json_values)
    elif change == "length":
        items = draw(st.sampled_from([[], items[:1], items + items[:1]]))
    return {"data": items}


@settings(deadline=None)
@given(answer=json_values | chat_answers | embedding_answers(), call=st.sampled_from(["chat", "embed"]))
def test_any_json_answer_is_a_result_or_a_gateway_error(answer, call):
    llm = LlmGateway("http://127.0.0.1:9", model_id="m")
    llm._post = lambda url, body: answer  # nothing is sent
    try:
        result = llm.chat("classify", record()) if call == "chat" else llm.embed(["a", "b"])
    except GatewayError:  # GatewayProtocolError and EmptyOutputError among them; nothing else may escape
        return
    if call == "chat":
        assert result == answer["choices"][0]["message"]["content"].rstrip() and result
    else:
        by_index = {item["index"]: item["embedding"] for item in answer["data"]}
        assert sorted(by_index) == [0, 1] and all(type(i) is int for i in by_index)  # not True, not 1.0
        assert all(type(e) is list and all(type(x) in (int, float) for x in e) for e in by_index.values())
        assert result == [EmbeddingVector.of(by_index[0]), EmbeddingVector.of(by_index[1])]
        assert result[0].dim == result[1].dim


class TestEmbeddingVector:
    def test_values_become_floats(self):
        """What ``embed`` passes on, a list of JSON numbers, is stored as floats."""
        vector = EmbeddingVector.of([1, 2.5, 3.0, -4])
        assert vector.values == (1.0, 2.5, 3.0, -4.0) and vector.dim == 4
        assert all(type(v) is float for v in vector.values)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "nan", "-inf", 1e400])
    def test_non_finite_values_are_rejected(self, value):
        with pytest.raises(ValidationError, match="^embedding contains non-finite values$"):
            EmbeddingVector.of([0.0, value])

    @pytest.mark.parametrize("value, error", [("abc", ValueError), (None, TypeError), ([1.0], TypeError), ({}, TypeError)])
    def test_non_numeric_values_raise_what_float_raises(self, value, error):
        with pytest.raises(error):
            EmbeddingVector.of([0.0, value])

    def test_direct_construction_checks_dim_and_values(self):
        assert EmbeddingVector(values=(0.0, 1.0, 2.0)).dim == 3  # dim is read off the values
        with pytest.raises(ValidationError, match="non-finite"):
            EmbeddingVector(values=(0.0, math.inf))
        with pytest.raises(TypeError):
            EmbeddingVector(values=(0.0, "1.0"))


class TestPromptTemplates:
    def test_classification_prompt_contains_labels_and_rules(self):
        user_prompt = sent_prompt("classify", record())
        assert "Include" in user_prompt and "Exclude" in user_prompt
        assert "Case reports" in user_prompt and "are included" in user_prompt
        assert "Review articles or meta-analyses" in user_prompt
        assert "exact number of patients" in user_prompt

    def test_classification_prompt_embeds_title_and_abstract(self):
        user_prompt = sent_prompt("classify", record())
        assert "ER in breast tumours" in user_prompt
        assert "5/10 cases" in user_prompt

    def test_extraction_prompt_contains_conventions(self):
        user_prompt = sent_prompt("extract", record())
        assert "X/Y" in user_prompt
        assert "NA" in user_prompt
        assert "/1 for case reports" in user_prompt

    def test_empty_abstract_rejected(self):
        bad = AbstractRecord(pmid="1", title="t", abstract_text="", source_markers={"ER"})
        llm = LlmGateway("http://127.0.0.1:9", model_id="m")
        llm._post = lambda url, body: pytest.fail("a request was sent")
        with pytest.raises(ValidationError):
            llm.chat("classify", bad)

    def test_template_hashes_stable(self):
        assert template_hash("classify") == template_hash("classify")
        assert template_hash("classify") != template_hash("extract")

    def test_template_read_once_so_text_matches_recorded_hash(self, tmp_path, monkeypatch):
        prompts = tmp_path / "prompts"
        shutil.copytree(gateway._PROMPT_DIR, prompts)
        monkeypatch.setattr(gateway, "_PROMPT_DIR", prompts)
        # rendered with its own placeholders, the text sent is the template as read
        placeholders = AbstractRecord(pmid="1", title="{{TITLE}}", abstract_text="{{ABSTRACT}}", source_markers={"ER"})
        recorded = template_hash("extract")
        first = sent_prompt("extract", placeholders)

        template = prompts / PROMPTS["extract"][0]
        template.write_text(template.read_text(encoding="utf-8") + "Edited mid-run.\n", encoding="utf-8")
        again = sent_prompt("extract", placeholders)
        assert again == first and "Edited mid-run" not in again
        assert template_hash("extract") == recorded
        assert hashlib.sha256(again.encode("utf-8")).hexdigest() == recorded


def test_request_bodies_are_pinned(monkeypatch):
    """The bytes sent for one classify, one extract and one embeddings call, as the transport sees them.

    The benchmark simulator keys its injected faults on a hash of each body, so any change of
    serialization, prompt rendering or token budget shows here first.
    """
    from ihcmine.tables import extract_table
    from ihcmine.transport import HttpTransport

    sent = []
    answers = {
        "/v1/chat/completions": {"choices": [{"message": {"content": "Include"}}]},
        "/v1/embeddings": {"data": [{"index": 0, "embedding": [1.0]}, {"index": 1, "embedding": [0.5]}]},
    }

    def request(self, method, url, body=None, headers=None):
        sent.append(body)
        return 200, json.dumps(answers[url[url.index("/v1/"):]]).encode("utf-8")

    monkeypatch.setattr(HttpTransport, "request", request)
    pinned = AbstractRecord(
        pmid="42",
        title="Ki-67 ≥ 14% in “luminal” breast tumours",
        abstract_text="ER was positive in 5/10 cases of breast carcinoma (breast); PR in 3/10 — see Table 1.",
        source_markers={"ER"},
    )
    llm = LlmGateway("http://127.0.0.1:9", model_id="pinned-model", emb_model_id="pinned-embedder")
    assert [c.label.value for c in iter_classified([pinned], llm, max_workers=1)] == ["Include"]
    assert extract_table(pinned, llm) == "Include"
    assert len(llm.embed(["ER", "breast carcinoma"])) == 2
    assert [hashlib.sha256(body).hexdigest() for body in sent] == [
        "301e44c4f45a7ba5ef73fa1805ba65b8a73f7912c9b090fd36b52305ec41b307",
        "25a007e015de7749fece4dd48a054c9559594d458ba0751f3d5cf203216ae2fb",
        "af267abce06e28022139fcc3930032354f2a4508d159add74e964e75e39d6b92",
    ]
