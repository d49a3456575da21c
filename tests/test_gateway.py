"""Gateway wire behavior against a live mock endpoint, plus prompt templates."""

import hashlib
import json
import math
import shutil

import pytest

from ihcmine import gateway
from ihcmine.classify import iter_classified
from ihcmine.domain import AbstractRecord
from ihcmine.errors import EmptyOutputError, GatewayError, GatewayProtocolError, ValidationError
from ihcmine.gateway import (
    CLASSIFY_TEMPLATE,
    EXTRACT_TEMPLATE,
    MAX_NEW_TOKENS,
    ChatRequest,
    EmbeddingVector,
    LlmGateway,
    render_prompt,
    template_hash,
    wire_payload,
)

from mockservers import LlmState, run_llm


def record():
    return AbstractRecord(
        pmid="123",
        title="ER in breast tumours",
        abstract_text="ER was positive in 5/10 cases of breast carcinoma (breast).",
        source_markers={"ER"},
    )


def chat_request(text="hello", max_new_tokens=4):
    return ChatRequest(
        model_id="m", system_prompt="sys", user_prompt=text, max_new_tokens=max_new_tokens
    )


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
        request = ChatRequest(
            model_id="m",
            system_prompt="sys",
            user_prompt="Answer with exactly one word: Include or Exclude.",
            max_new_tokens=4,
        )
        assert gateway.chat(request) == "Include"

    def test_retry_after_two_500s(self, llm):
        state, url = llm
        state.fail_next = 2
        gateway = LlmGateway(url, model_id="m", retries=3, backoff_base=0.01)
        assert gateway.chat(chat_request("Answer with exactly one word: x")) == "Exclude"
        assert len(state.requests) == 3

    def test_failure_after_retries_exhausted(self, llm):
        state, url = llm
        state.fail_next = 10
        gateway = LlmGateway(url, model_id="m", retries=3, backoff_base=0.01)
        with pytest.raises(GatewayError):
            gateway.chat(chat_request())

    def test_empty_completion_raises(self, llm):
        state, url = llm
        state.empty_next = 1
        gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
        with pytest.raises(EmptyOutputError):
            gateway.chat(chat_request("Answer with exactly one word: x"))

    def test_max_new_tokens_serialized_exactly(self, llm):
        state, url = llm
        gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
        gateway.chat(chat_request("Answer with exactly one word: x", max_new_tokens=4))
        assert state.requests[-1]["body"]["max_tokens"] == 4

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
        a = wire_payload(chat_request("same text"))
        b = wire_payload(chat_request("same text"))
        assert a == b

    def test_payload_shape(self):
        body = json.loads(wire_payload(chat_request("hi", max_new_tokens=1024)))
        assert body["max_tokens"] == 1024
        assert body["temperature"] == 0.0
        assert [m["role"] for m in body["messages"]] == ["system", "user"]


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
    ],
    ids=["chat-number", "chat-list", "embed-string", "embed-nan", "embed-huge-integer", "embed-repeated-index"],
)
def test_answer_of_the_wrong_shape_is_a_protocol_error(monkeypatch, call, answer):
    gateway = LlmGateway("http://127.0.0.1:9", model_id="m")
    monkeypatch.setattr(gateway, "_post", lambda url, body: answer)
    with pytest.raises(GatewayProtocolError):
        gateway.chat(chat_request()) if call == "chat" else gateway.embed(["a", "b"])


class TestEmbeddingVector:
    def test_values_become_floats(self):
        vector = EmbeddingVector.of([1, "2.5", 3.0, True])
        assert vector.values == (1.0, 2.5, 3.0, 1.0) and vector.dim == 4
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
        with pytest.raises(ValidationError, match="dim 3 != len"):
            EmbeddingVector(values=(0.0, 1.0), dim=3)
        with pytest.raises(ValidationError, match="non-finite"):
            EmbeddingVector(values=(0.0, math.inf), dim=2)
        with pytest.raises(TypeError):
            EmbeddingVector(values=(0.0, "1.0"), dim=2)


class TestPromptTemplates:
    def test_classification_prompt_contains_labels_and_rules(self):
        request = render_prompt(CLASSIFY_TEMPLATE, record(), model_id="m")
        assert "Include" in request.user_prompt and "Exclude" in request.user_prompt
        assert "Case reports" in request.user_prompt and "are included" in request.user_prompt
        assert "Review articles or meta-analyses" in request.user_prompt
        assert "exact number of patients" in request.user_prompt
        assert request.max_new_tokens == MAX_NEW_TOKENS[CLASSIFY_TEMPLATE] == 4
        assert request.temperature == 0.0

    def test_classification_prompt_embeds_title_and_abstract(self):
        request = render_prompt(CLASSIFY_TEMPLATE, record(), model_id="m")
        assert "ER in breast tumours" in request.user_prompt
        assert "5/10 cases" in request.user_prompt

    def test_extraction_prompt_contains_conventions(self):
        request = render_prompt(EXTRACT_TEMPLATE, record(), model_id="m")
        assert "X/Y" in request.user_prompt
        assert "NA" in request.user_prompt
        assert "/1 for case reports" in request.user_prompt
        assert request.max_new_tokens == MAX_NEW_TOKENS[EXTRACT_TEMPLATE] == 1024

    def test_empty_abstract_rejected(self):
        bad = AbstractRecord(pmid="1", title="t", abstract_text="", source_markers={"ER"})
        with pytest.raises(ValidationError):
            render_prompt(CLASSIFY_TEMPLATE, bad)

    def test_template_hashes_stable(self):
        assert template_hash("classify_v1.txt") == template_hash("classify_v1.txt")
        assert template_hash("classify_v1.txt") != template_hash("extract_v1.txt")

    def test_template_read_once_so_text_matches_recorded_hash(self, tmp_path, monkeypatch):
        prompts = tmp_path / "prompts"
        shutil.copytree(gateway._PROMPT_DIR, prompts)
        monkeypatch.setattr(gateway, "_PROMPT_DIR", prompts)
        recorded = template_hash(EXTRACT_TEMPLATE)
        first = render_prompt(EXTRACT_TEMPLATE, record()).user_prompt

        template = prompts / EXTRACT_TEMPLATE
        template.write_text(template.read_text(encoding="utf-8") + "Edited mid-run.\n", encoding="utf-8")
        again = render_prompt(EXTRACT_TEMPLATE, record()).user_prompt
        assert again == first and "Edited mid-run" not in again
        assert template_hash(EXTRACT_TEMPLATE) == recorded
        sent = gateway.template_text(EXTRACT_TEMPLATE).encode("utf-8")
        assert hashlib.sha256(sent).hexdigest() == recorded
