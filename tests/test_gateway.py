"""Prompt templates, request keys, cassette record/replay, and reply parsers."""

from __future__ import annotations

import errno
import hashlib
import json
from pathlib import Path

import pytest

from tablefocus import gateway as gw
from tablefocus.trace import ReasoningTrace, digest

from conftest import GOLDEN_CASES, edited_templates


def _request(template_id="column_lookup", rendered="hello"):
    return gw.LmRequest(template_id=template_id, rendered=rendered)


class TestPromptTemplate:
    def test_from_body_derives_bindings(self):
        t = gw.PromptTemplate("x", "Q: {{question}} T: {{table}}")
        assert t.required_bindings == frozenset({"question", "table"})

    def test_render(self):
        t = gw.PromptTemplate("x", "A {{a}} B {{b}}")
        assert gw.render_prompt(t, {"a": "1", "b": "2"}) == "A 1 B 2"

    def test_missing_binding(self):
        t = gw.PromptTemplate("x", "{{a}}")
        with pytest.raises(gw.MissingBinding):
            gw.render_prompt(t, {})

    def test_unknown_binding(self):
        t = gw.PromptTemplate("x", "{{a}}")
        with pytest.raises(gw.UnknownBinding):
            gw.render_prompt(t, {"a": "1", "zz": "2"})

    def test_repeated_placeholder(self):
        t = gw.PromptTemplate("x", "{{a}} and {{a}}")
        assert gw.render_prompt(t, {"a": "v"}) == "v and v"


class TestRequestKey:
    def test_matches_manual_sha256(self):
        request = _request("row_lookup_sql", "body text")
        expected = hashlib.sha256(b"row_lookup_sql\x00body text").hexdigest()
        assert request.key == expected

    def test_template_id_is_part_of_key(self):
        assert _request("a", "x").key != _request("b", "x").key

    def test_stable(self):
        assert _request().key == _request().key

    def test_a_recorded_call_hashes_its_prompt_once(self, tmp_path, monkeypatch):
        # The request computes its key once; the cassette and the trace read it.
        hashed = []

        def counting(data=b""):
            hashed.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(gw, "sha256", counting)
        gateway = gw.Gateway(gw.Cassette(tmp_path / "c", "record", inner=_CountingBackend()))
        trace = ReasoningTrace()
        gateway.complete("answer_formatting", {"question": "q", "reasoning": "r"}, trace)
        assert len(hashed) == 1
        assert trace.steps[0]["request_key"] == hashlib.sha256(hashed[0]).hexdigest()


class TestScriptedBackend:
    def test_pops_in_order(self):
        backend = gw.ScriptedBackend({"column_lookup": ["first", "second"]})
        assert backend.send(_request()).text == "first"
        assert backend.send(_request()).text == "second"

    def test_exhausted_queue_raises(self):
        backend = gw.ScriptedBackend({})
        with pytest.raises(gw.TransportError):
            backend.send(_request())


class _CountingBackend:
    def __init__(self, text="reply"):
        self.calls = 0
        self.text = text

    def send(self, request):
        self.calls += 1
        return gw.LmResponse(text=self.text, backend_id="counting")


class TestCassette:
    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError):
            gw.Cassette(tmp_path, "mystery")

    def test_record_requires_inner(self, tmp_path):
        with pytest.raises(ValueError):
            gw.Cassette(tmp_path, "record")

    def test_record_then_replay(self, tmp_path):
        inner = _CountingBackend("the reply")
        rec = gw.Cassette(tmp_path / "c", "record", inner=inner)
        request = _request()
        assert rec.send(request).text == "the reply"

        rep = gw.Cassette(tmp_path / "c", "replay")
        got = rep.send(request)
        assert got.text == "the reply"
        assert inner.calls == 1

    def test_record_deduplicates(self, tmp_path):
        inner = _CountingBackend()
        rec = gw.Cassette(tmp_path / "c", "record", inner=inner)
        rec.send(_request())
        rec.send(_request())
        assert inner.calls == 1
        assert rec.entries() == [(_request().key, "column_lookup")]

    def test_entries_mark_unreadable_and_remove_deletes(self, tmp_path):
        rec = gw.Cassette(tmp_path / "c", "record", inner=_CountingBackend())
        rec.send(_request())
        (tmp_path / "c" / "truncated.json").write_text('{"request": {"templ', encoding="utf-8")
        key = _request().key
        assert rec.entries() == sorted([(key, "column_lookup"), ("truncated", None)])
        rec.remove("truncated")
        assert rec.entries() == [(key, "column_lookup")]

    def test_replay_miss(self, tmp_path):
        rep = gw.Cassette(tmp_path / "empty", "replay")
        with pytest.raises(gw.CassetteMiss):
            rep.send(_request())

    def test_entry_file_shape(self, tmp_path):
        rec = gw.Cassette(tmp_path / "c", "record", inner=_CountingBackend("out"))
        request = _request()
        rec.send(request)
        entry = json.loads((tmp_path / "c" / f"{request.key}.json").read_text())
        assert entry["request"] == {
            "template_id": "column_lookup",
            "rendered": "hello",
            "temperature": 0.0,
            "max_tokens": 2048,
        }
        assert entry["response"]["text"] == "out"

    def test_store_leaves_only_the_entry(self, tmp_path):
        rec = gw.Cassette(tmp_path / "c", "record", inner=_CountingBackend("out"))
        rec.send(_request())
        assert [p.name for p in (tmp_path / "c").iterdir()] == [f"{_request().key}.json"]

    @pytest.mark.parametrize("text", [
        '{"request": {"template_id": "column_lookup", "rend',
        '{"response": {}}',
        '{"response": {"text": null}}',
        '["not", "an", "entry"]',
    ])
    def test_corrupt_entry_raises_gateway_error(self, tmp_path, text):
        rec = gw.Cassette(tmp_path / "c", "record", inner=_CountingBackend())
        rec.send(_request())
        (tmp_path / "c" / f"{_request().key}.json").write_text(text)
        with pytest.raises(gw.CorruptEntry):
            gw.Cassette(tmp_path / "c", "replay").send(_request())


class TestCassetteStorageFaults:
    def test_unreadable_entry_is_storage_fault(self, tmp_path, monkeypatch):
        rec = gw.Cassette(tmp_path / "c", "record", inner=_CountingBackend())
        rec.send(_request())

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(Path, "read_text", denied)
        with pytest.raises(gw.StorageFault, match="could not be read"):
            gw.Cassette(tmp_path / "c", "replay").send(_request())
        assert rec.entries() == [(_request().key, None)]

    def test_failed_write_is_storage_fault_and_leaves_no_temp(self, tmp_path, monkeypatch):
        def full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(gw.os, "replace", full)
        rec = gw.Cassette(tmp_path / "c", "record", inner=_CountingBackend())
        with pytest.raises(gw.StorageFault, match="could not be written"):
            rec.send(_request())
        assert list((tmp_path / "c").iterdir()) == []


class _FakeReply:
    def __init__(self, status_code, text):
        self.status_code = status_code
        self.text = text

    def json(self):
        return json.loads(self.text)


class TestHttpBackend:
    def _send(self, monkeypatch, status, text):
        import requests

        self.posted = []
        monkeypatch.setattr(requests, "post", lambda *a, **k: self.posted.append(k) or _FakeReply(status, text))
        return gw.HttpBackend("http://localhost:1", "m").send(_request())

    def test_well_formed_reply(self, monkeypatch):
        body = {"choices": [{"message": {"content": "hi"}}], "usage": {"prompt_tokens": 3, "completion_tokens": 1}}
        got = self._send(monkeypatch, 200, json.dumps(body))
        assert (got.text, got.prompt_tokens, got.completion_tokens) == ("hi", 3, 1)
        assert self.posted[0]["json"] == {
            "model": "m",
            "messages": [{"role": "user", "content": "hello"}],
            "temperature": 0.0,
            "max_tokens": 2048,
        }

    @pytest.mark.parametrize("text", [
        "<html>not json</html>",
        "{}",
        '{"choices": []}',
        '{"choices": [{"message": {}}]}',
        '{"choices": [{"message": {"content": null}}]}',
        '["not", "an", "object"]',
    ])
    def test_malformed_2xx_reply_is_provider_error(self, monkeypatch, text):
        with pytest.raises(gw.ProviderError) as info:
            self._send(monkeypatch, 200, text)
        assert (info.value.status, info.value.body) == (200, text)

    def test_error_status_is_provider_error(self, monkeypatch):
        with pytest.raises(gw.ProviderError) as info:
            self._send(monkeypatch, 503, "busy")
        assert info.value.status == 503

    def test_api_key_is_sent_as_a_bearer_token(self, monkeypatch):
        monkeypatch.setenv("TF_API_KEY", "sk-test")
        self._send(monkeypatch, 200, json.dumps({"choices": [{"message": {"content": "hi"}}]}))
        assert self.posted[0]["headers"]["Authorization"] == "Bearer sk-test"

    def test_failed_request_is_transport_error(self, monkeypatch):
        import requests

        def refused(*args, **kwargs):
            raise requests.ConnectionError("connection refused")

        monkeypatch.setattr(requests, "post", refused)
        with pytest.raises(gw.TransportError, match="connection refused"):
            gw.HttpBackend("http://localhost:1", "m").send(_request())

    def test_reply_with_a_lone_surrogate_degrades_the_run(self, monkeypatch):
        import requests

        from tablefocus.pipeline import PipelineConfig, run_instance

        body = json.dumps({"choices": [{"message": {"content": "key column: a\ud800"}}]})
        monkeypatch.setattr(requests, "post", lambda *a, **k: _FakeReply(200, body))
        case = GOLDEN_CASES[0]
        lm = gw.Gateway(gw.HttpBackend("http://localhost:1", "m"))
        answer, trace = run_instance(case.table, case.question, lm, PipelineConfig(backend_mode="passthrough"))
        assert answer.abstained
        assert any(w.startswith("pipeline degraded: ProviderError") for w in trace.warnings)

    def test_prompt_with_a_lone_surrogate_is_a_gateway_error(self):
        lm = gw.Gateway(gw.ScriptedBackend({}))
        with pytest.raises(gw.UnencodablePrompt, match="column_lookup"):
            lm.build_request("column_lookup", {"headers": "a", "question": "Which\ud800?", "table": ""})
        assert issubclass(gw.UnencodablePrompt, gw.GatewayError)

    def test_scripted_reply_with_a_lone_surrogate_is_a_gateway_error(self):
        with pytest.raises(gw.UnencodableReply):
            gw.ScriptedBackend({"column_lookup": ["a\ud800"]}).send(_request())
        assert issubclass(gw.UnencodableReply, gw.GatewayError)


class TestTemplatesAndGateway:
    def test_bundled_templates_complete(self):
        registry = gw.load_templates()
        assert set(registry) == set(gw.TEMPLATE_IDS)
        for template in registry.values():
            assert template.body.strip()

    def test_missing_template_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            gw.load_templates(tmp_path)

    def test_custom_templates_load_when_placeholders_match(self, tmp_path):
        registry = gw.load_templates(edited_templates(tmp_path, "verbalization", "You are", "Here is"))
        assert registry["verbalization"].body.startswith("Here is given")

    def test_mistyped_placeholder_rejected_at_load(self, tmp_path):
        directory = edited_templates(tmp_path, "verbalization", "{{table}}", "{{tabel}}")
        with pytest.raises(ValueError, match=r"verbalization\.txt.*\['tabel'\].*\['table'\]"):
            gw.load_templates(directory)

    def test_complete_returns_request_and_response(self):
        # complete returns the reply text and records the call as one lm step.
        gateway = gw.Gateway(gw.ScriptedBackend({"answer_formatting": ["42"]}))
        bindings = {"question": "q", "reasoning": "r"}
        trace = ReasoningTrace()
        assert gateway.complete("answer_formatting", bindings, trace) == "42"
        request = gateway.build_request("answer_formatting", bindings)
        assert "q" in request.rendered
        assert trace.steps == [{
            "kind": "lm",
            "template_id": "answer_formatting",
            "request_key": request.key,
            "reply_digest": digest("42"),
            "warnings": [],
        }]

    def test_negative_token_counts_rejected(self):
        with pytest.raises(ValueError):
            gw.LmResponse(text="x", prompt_tokens=-1)


class TestParseBool:
    @pytest.mark.parametrize("reply", ["Yes.", "yes, clearly", "TRUE", "It is sufficient."])
    def test_affirmative(self, reply):
        assert gw.parse_bool(reply) is True

    @pytest.mark.parametrize("reply", ["No", "false!", "Insufficient information here."])
    def test_negative(self, reply):
        assert gw.parse_bool(reply) is False

    def test_first_polarity_token_wins(self):
        assert gw.parse_bool("No, but yes later") is False

    def test_unparseable_carries_raw_reply(self):
        with pytest.raises(gw.UnparseableReply, match="'maybe 42'"):
            gw.parse_bool("maybe 42")


class TestParseChoice:
    def test_direct_option(self):
        assert gw.parse_choice("go with symbolic", ["textual", "symbolic"]) == "symbolic"

    def test_synonym(self):
        got = gw.parse_choice("write a program", ["textual", "symbolic"], synonyms={"program": "symbolic"})
        assert got == "symbolic"

    def test_option_order_priority(self):
        assert gw.parse_choice("textual or symbolic", ["textual", "symbolic"]) == "textual"

    def test_requires_two_options(self):
        with pytest.raises(ValueError):
            gw.parse_choice("x", ["only"])

    def test_no_match(self):
        with pytest.raises(gw.UnparseableReply):
            gw.parse_choice("neither", ["textual", "symbolic"])


class TestParseDelimitedList:
    def test_splits_on_mixed_delimiters(self):
        kept, dropped = gw.parse_delimited_list("a, b\nc|d", expected_universe="abcd")
        assert kept == ["a", "b", "c", "d"]
        assert dropped == []

    def test_strips_bullets_and_numbering(self):
        kept, _ = gw.parse_delimited_list("- a\n* b\n1. c\n2) d", expected_universe="abcd")
        assert kept == ["a", "b", "c", "d"]

    def test_universe_filter_canonicalizes_case(self):
        kept, dropped = gw.parse_delimited_list("wins, RIDER, bogus", expected_universe=["Rider", "Wins"])
        assert kept == ["Wins", "Rider"]
        assert dropped == ["bogus"]

    def test_repeated_items_kept_once_in_first_mention_order(self):
        kept, dropped = gw.parse_delimited_list("b, a, B, x, a, x", expected_universe="ab")
        assert kept == ["b", "a"]
        assert dropped == ["x", "x"]

    def test_empty_reply(self):
        with pytest.raises(gw.EmptyList):
            gw.parse_delimited_list("  \n , ", expected_universe=["a"])

    def test_all_items_outside_universe(self):
        with pytest.raises(gw.EmptyList):
            gw.parse_delimited_list("x, y", expected_universe=["a"])


class TestExtractCodeBlock:
    def test_tagged_fence(self):
        assert gw.extract_code_block("text\n```python\nprint(1)\n```\nmore") == "print(1)"

    def test_untagged_fence(self):
        assert gw.extract_code_block("```\nSELECT 1\n```") == "SELECT 1"

    def test_single_line_fence_keeps_content(self):
        assert gw.extract_code_block("```x=1```") == "x=1"

    def test_first_fence_wins(self):
        assert gw.extract_code_block("```\na\n```\n```\nb\n```") == "a"

    def test_unfenced_reply_returned_whole(self):
        assert gw.extract_code_block("SELECT * FROM t") == "SELECT * FROM t"
