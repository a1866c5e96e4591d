"""Versioned prompt templates and prompt-fragment rendering.

Templates live as text files under ``obsdecipher/templates`` and use
``${slot}`` placeholders. The template id embeds a content hash so any edit
to a shipped file changes the id recorded in results.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Sequence

from .errors import TemplateError

_SLOT_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")

NO_EVIDENCE_MARKER = {"zh": "（无检索证据）", "en": "(no retrieved evidence)"}


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    slots: frozenset[str]
    body: str

    def render(self, **values) -> str:
        missing = self.slots - values.keys()
        if missing:
            raise TemplateError(f"unfilled slots: {sorted(missing)}")
        out = _SLOT_RE.sub(lambda m: str(values[m.group(1)]), self.body)
        leftover = _SLOT_RE.search(out)
        if leftover:
            raise TemplateError(f"placeholder survived rendering: {leftover.group(0)}")
        return out


def template_from_text(name: str, body: str) -> PromptTemplate:
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()[:8]
    return PromptTemplate(
        template_id=f"{name}@{digest}",
        slots=frozenset(_SLOT_RE.findall(body)),
        body=body,
    )


@lru_cache(maxsize=None)
def load_template(name: str) -> PromptTemplate:
    """Load a shipped template by file stem, e.g. ``type_inference.zh``."""
    path = resources.files("obsdecipher").joinpath("templates").joinpath(f"{name}.txt")
    try:
        body = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise TemplateError(f"no such template: {name!r}") from exc
    return template_from_text(name, body)


def render_predictions(entries: Sequence[tuple[str, float]]) -> str:
    """One ``- label (distance=...)`` line per predicted component."""
    return "\n".join(f"- {label} (distance={dist:.4f})" for label, dist in entries)


def render_evidence(items: Sequence, lang: str = "zh") -> str:
    """Numbered evidence lines; an empty bundle yields an explicit marker."""
    if not items:
        return NO_EVIDENCE_MARKER.get(lang, NO_EVIDENCE_MARKER["en"])
    lines = []
    for item in items:
        content = item.content if item.content else "(empty)"
        lines.append(f"[{item.rank}] ({item.kind.value}) {item.subject}: {content}")
    return "\n".join(lines)
