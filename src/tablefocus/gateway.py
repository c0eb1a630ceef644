"""Single seam to language models.

Holds the prompt template registry, request/response types, structured-output
parsers, and the backends: an OpenAI-compatible HTTP provider and a
record/replay cassette that makes every pipeline path deterministic under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Protocol

from .trace import ReasoningTrace

TEMPLATE_IDS = (
    "structure_extraction",
    "column_ranking",
    "column_lookup",
    "row_lookup_sql",
    "verbalization",
    "information_estimation",
    "strategy_assessment",
    "textual_reasoning",
    "textual_guidance",
    "symbolic_reasoning",
    "answer_formatting",
)

# Every request is sent with these sampling settings, so replies are as
# deterministic as the provider allows.
TEMPERATURE = 0.0
MAX_TOKENS = 2048

_PLACEHOLDER_RE = re.compile(r"\{\{([a-zA-Z_][a-zA-Z0-9_]*)\}\}")


class GatewayError(Exception):
    """Base class for gateway failures."""


class MissingBinding(ValueError):
    """A stage sent too few bindings: a bug, since templates are checked at load."""


class UnknownBinding(ValueError):
    """A stage sent a binding its template lacks: a bug, as above."""


class UnparseableReply(GatewayError):
    """A structured-output parser found no usable signal in the reply."""


class EmptyList(UnparseableReply):
    pass


class CassetteMiss(GatewayError):
    pass


class CorruptEntry(GatewayError):
    """A cassette entry is not JSON or lacks ``response.text``."""


class TransportError(GatewayError):
    pass


class ProviderError(GatewayError):
    def __init__(self, status: int, body: str):
        super().__init__(f"provider returned HTTP {status}: {body[:500]}")
        self.status = status
        self.body = body


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    body: str

    @cached_property
    def required_bindings(self) -> frozenset[str]:
        return frozenset(_PLACEHOLDER_RE.findall(self.body))


@dataclass(frozen=True)
class LmRequest:
    template_id: str
    rendered: str


@dataclass(frozen=True)
class LmResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    backend_id: str = ""

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be non-negative")


def render_prompt(template: PromptTemplate, bindings: Mapping[str, str]) -> str:
    """Substitute every placeholder; binding keys must match exactly."""
    keys = set(bindings)
    missing = template.required_bindings - keys
    if missing:
        raise MissingBinding(f"template {template.id}: missing bindings {sorted(missing)}")
    extra = keys - template.required_bindings
    if extra:
        raise UnknownBinding(f"template {template.id}: unknown bindings {sorted(extra)}")
    return _PLACEHOLDER_RE.sub(lambda m: str(bindings[m.group(1)]), template.body)


def request_key(request: LmRequest) -> str:
    """Stable 256-bit cassette key over (template_id, rendered text)."""
    digest = hashlib.sha256()
    digest.update(request.template_id.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(request.rendered.encode("utf-8"))
    return digest.hexdigest()


class Backend(Protocol):
    def send(self, request: LmRequest) -> LmResponse: ...


class HttpBackend:
    """OpenAI-compatible chat-completions provider."""

    def __init__(self, base_url: str, model: str, api_key_env: str = "TF_API_KEY", timeout: float = 120.0):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout

    def send(self, request: LmRequest) -> LmResponse:
        import requests

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.rendered}],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        try:
            resp = requests.post(
                f"{self.base_url}/chat/completions", json=payload, headers=headers, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if resp.status_code // 100 != 2:
            raise ProviderError(resp.status_code, resp.text)
        try:
            data = resp.json()
            text = data["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"message content is {type(text).__name__}, not text")
            usage = data.get("usage") or {}
            return LmResponse(
                text=text,
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
                backend_id=f"http:{self.model}",
            )
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            # A 2xx reply without the chat-completions shape is a provider fault.
            raise ProviderError(resp.status_code, resp.text) from exc


class ScriptedBackend:
    """Test backend: per-template queues of canned replies, popped in order."""

    def __init__(self, replies: Mapping[str, Iterable[str]]):
        self._queues = {tid: list(items) for tid, items in replies.items()}

    def send(self, request: LmRequest) -> LmResponse:
        queue = self._queues.get(request.template_id)
        if not queue:
            raise TransportError(f"no scripted reply for template {request.template_id}")
        return LmResponse(text=queue.pop(0), backend_id="scripted")


class Cassette:
    """Directory-of-JSON record/replay store keyed by the stable request hash.

    In replay mode no network backend is ever contacted; writes in record mode
    are serialized by an internal lock.
    """

    MODES = ("record", "replay")

    def __init__(self, path: str | Path, mode: str, inner: Backend | None = None):
        if mode not in self.MODES:
            raise ValueError(f"unknown cassette mode: {mode!r}")
        if mode == "record" and inner is None:
            raise ValueError("record mode requires an inner backend")
        self.path = Path(path)
        self.mode = mode
        self.inner = inner
        self._lock = threading.Lock()
        if mode == "record":
            self.path.mkdir(parents=True, exist_ok=True)

    def _entry_path(self, key: str) -> Path:
        return self.path / f"{key}.json"

    def lookup(self, key: str) -> LmResponse | None:
        entry = self._entry_path(key)
        if not entry.is_file():
            return None
        try:
            resp = json.loads(entry.read_text(encoding="utf-8"))["response"]
            response = LmResponse(
                text=resp["text"],
                prompt_tokens=resp.get("prompt_tokens", 0),
                completion_tokens=resp.get("completion_tokens", 0),
                backend_id=resp.get("backend_id", "cassette"),
            )
        except (ValueError, LookupError, TypeError) as exc:
            raise CorruptEntry(f"cassette entry {key} is unreadable: {exc}") from exc
        if not isinstance(response.text, str):
            raise CorruptEntry(f"cassette entry {key} has no response text")
        return response

    def store(self, request: LmRequest, response: LmResponse) -> None:
        entry = {
            "request": {
                "template_id": request.template_id,
                "rendered": request.rendered,
                "temperature": TEMPERATURE,
                "max_tokens": MAX_TOKENS,
            },
            "response": {
                "text": response.text,
                "prompt_tokens": response.prompt_tokens,
                "completion_tokens": response.completion_tokens,
                "backend_id": response.backend_id,
            },
        }
        path = self._entry_path(request_key(request))
        # Write a temp file that `*.json` does not match, then rename it into
        # place, so a crash mid-write never leaves a truncated entry.
        temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with self._lock:
            try:
                temp.write_text(json.dumps(entry, indent=2, ensure_ascii=False), encoding="utf-8")
                os.replace(temp, path)
            finally:
                temp.unlink(missing_ok=True)

    def entries(self) -> list[tuple[str, str | None]]:
        """Each entry's key and template id, in key order; ``None`` marks an unreadable entry."""
        listed = []
        for path in sorted(self.path.glob("*.json")):
            try:
                template_id = json.loads(path.read_text(encoding="utf-8"))["request"]["template_id"]
            except (ValueError, LookupError, TypeError):
                template_id = None
            listed.append((path.stem, template_id if isinstance(template_id, str) else None))
        return listed

    def remove(self, key: str) -> None:
        with self._lock:
            self._entry_path(key).unlink(missing_ok=True)

    def send(self, request: LmRequest) -> LmResponse:
        key = request_key(request)
        hit = self.lookup(key)
        if hit is not None:
            return hit
        if self.mode == "replay":
            raise CassetteMiss(f"no cassette entry for {request.template_id} ({key})")
        assert self.inner is not None
        response = self.inner.send(request)
        self.store(request, response)
        return response


BUNDLED_TEMPLATES = Path(__file__).parent / "templates"


def load_templates(directory: str | Path | None = None) -> dict[str, PromptTemplate]:
    """Load one plain-text template file per id, defaulting to the bundled set.

    The bundled set is the contract: each stage sends exactly the bindings of
    its bundled template, so a template from ``directory`` must keep them.
    """
    directory = Path(BUNDLED_TEMPLATES if directory is None else directory)
    registry: dict[str, PromptTemplate] = {}
    for template_id in TEMPLATE_IDS:
        path = directory / f"{template_id}.txt"
        if not path.is_file():
            raise FileNotFoundError(f"missing prompt template file: {path}")
        registry[template_id] = PromptTemplate(template_id, path.read_text(encoding="utf-8"))
    if directory != BUNDLED_TEMPLATES:
        for template_id, bundled in load_templates().items():
            found = registry[template_id].required_bindings
            if found != bundled.required_bindings:
                raise ValueError(
                    f"{directory / f'{template_id}.txt'}: placeholders {sorted(found)} differ from "
                    f"the bindings its stage sends {sorted(bundled.required_bindings)}"
                )
    return registry


class Gateway:
    """Template registry plus a backend; the one object pipeline stages call."""

    def __init__(self, backend: Backend, templates: Mapping[str, PromptTemplate] | None = None):
        self.backend = backend
        self.templates = dict(templates) if templates is not None else load_templates()

    def build_request(self, template_id: str, bindings: Mapping[str, str]) -> LmRequest:
        return LmRequest(template_id=template_id, rendered=render_prompt(self.templates[template_id], bindings))

    def complete(self, template_id: str, bindings: Mapping[str, str], trace: ReasoningTrace) -> str:
        """Send one prompt, record it as an ``lm`` step of ``trace``, and return the reply text."""
        request = self.build_request(template_id, bindings)
        reply = self.backend.send(request).text
        trace.record_lm(template_id, request_key(request), reply)
        return reply


_AFFIRM = ("yes", "true", "sufficient")
_NEGATE = ("no", "false", "insufficient")


def parse_bool(reply: str) -> bool:
    """Scan for the leading affirmation or negation token, case-insensitively."""
    for token in re.findall(r"[a-zA-Z]+", reply):
        lowered = token.lower()
        if lowered in _AFFIRM:
            return True
        if lowered in _NEGATE:
            return False
    raise UnparseableReply(f"no yes/no polarity found in reply: {reply[:200]!r}")


def parse_choice(
    reply: str,
    options: list[str],
    synonyms: Mapping[str, str] | None = None,
) -> str:
    """Return the first option whose label (or declared synonym) appears in the reply."""
    if len(options) < 2:
        raise ValueError("parse_choice requires at least two options")
    lowered = reply.lower()
    for option in options:
        if option.lower() in lowered:
            return option
    if synonyms:
        for alias, option in synonyms.items():
            if option in options and alias.lower() in lowered:
                return option
    raise UnparseableReply(f"none of {options} found in reply: {reply[:200]!r}")


def parse_delimited_list(reply: str, expected_universe: Iterable[str]) -> tuple[list[str], list[str]]:
    """Split a reply on newlines/commas/pipes into trimmed items.

    Items outside the universe are dropped and reported (second element of the
    result); kept items carry the universe's canonical casing and appear once
    each, in first-mention order.
    """
    items = [part.strip() for part in re.split(r"[\n,|]+", reply)]
    items = [re.sub(r"^\s*(?:[-*•]|\d+[.)])\s*", "", item).strip() for item in items]
    items = [item for item in items if item]
    if not items:
        raise EmptyList(f"no list items found in reply: {reply[:200]!r}")
    canonical = {u.lower(): u for u in expected_universe}
    kept: list[str] = []
    dropped: list[str] = []
    for item in items:
        match = canonical.get(item.lower())
        if match is None:
            dropped.append(item)
        elif match not in kept:
            kept.append(match)
    if not kept:
        raise EmptyList(f"no list items inside the expected universe: {reply[:200]!r}")
    return kept, dropped


_FENCE_RE = re.compile(r"```(.*?)```", re.DOTALL)
_FENCE_TAG_RE = re.compile(r"[ \t]*[a-zA-Z0-9_+-]*[ \t]*")


def extract_code_block(reply: str) -> str:
    """Content of the first triple-backtick fence, or the whole reply if unfenced."""
    match = _FENCE_RE.search(reply)
    if not match:
        return reply
    inner = match.group(1)
    if "\n" in inner:
        first, rest = inner.split("\n", 1)
        if _FENCE_TAG_RE.fullmatch(first):
            inner = rest
    return inner.strip("\n")
