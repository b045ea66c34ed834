"""Char-level data pipeline: cleaning, vocabulary, tokenization, JSONL IO,
and a synthetic corpus generator with a sequential cue.

Token layout of an encoded example::

    [CLS] t e x t ... [SEP] e v e n t _ t y p e [SEP]

The event type is never truncated; the text is cut from the right to fit
``max_len``. Segment 0 covers [CLS] through the first [SEP], segment 1
covers the event type and the final [SEP].
"""

from __future__ import annotations

import io
import json
import re
import unicodedata
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DataError, EmptyTextError, GoldNotFoundError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
RESERVED = 4
_RESERVED_LABELS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")

_WS_RUN = re.compile(r"\s+")


def scrub_text(raw: str) -> str:
    """Drop format chars (category Cf) and non-whitespace control chars
    (Cc), collapse whitespace runs to single spaces, and strip. May
    return an empty string."""
    kept = []
    for ch in raw:
        cat = unicodedata.category(ch)
        if cat == "Cf" or (cat == "Cc" and not ch.isspace()):
            continue
        kept.append(ch)
    return _WS_RUN.sub(" ", "".join(kept)).strip()


def clean_text(raw: str) -> str:
    """``scrub_text`` that raises ``EmptyTextError`` if nothing remains."""
    out = scrub_text(raw)
    if not out:
        raise EmptyTextError("text is empty after cleaning")
    return out


class Vocabulary:
    """Char-to-id map with four reserved ids: PAD=0, UNK=1, CLS=2, SEP=3.

    Built from a corpus by collecting distinct chars in codepoint order,
    so the same corpus always yields the same table.
    """

    def __init__(self, chars: Sequence[str]):
        self._chars: list[str] = list(chars)
        self._ids: dict[str, int] = {}
        for i, ch in enumerate(self._chars):
            if len(ch) != 1:
                raise ContractError(f"vocabulary entries must be single chars, got {ch!r}")
            if ch in self._ids:
                raise ContractError(f"vocabulary repeats the char {ch!r}")
            self._ids[ch] = RESERVED + i

    @classmethod
    def from_corpus(cls, examples: Iterable["RawExample"]) -> "Vocabulary":
        chars: set[str] = set()
        for ex in examples:
            chars.update(ex.text)
            chars.update(ex.event_type)
        return cls(sorted(chars))

    @property
    def size(self) -> int:
        return RESERVED + len(self._chars)

    def id_for(self, ch: str) -> int:
        return self._ids.get(ch, UNK_ID)

    def char_for(self, idx: int) -> str | None:
        """The char behind an id; None for the reserved ids."""
        if 0 <= idx < RESERVED:
            return None
        if not RESERVED <= idx < self.size:
            raise IndexError(f"id {idx} out of range for vocabulary of size {self.size}")
        return self._chars[idx - RESERVED]

    def token_label(self, idx: int) -> str:
        """Printable label for an id, for inspection output."""
        if 0 <= idx < RESERVED:
            return _RESERVED_LABELS[idx]
        return self.char_for(idx)

    def encode(self, text: str) -> list[int]:
        return [self.id_for(ch) for ch in text]

    def to_json(self) -> dict:
        return {"chars": "".join(self._chars)}

    @classmethod
    def from_json(cls, obj: dict) -> "Vocabulary":
        chars = obj.get("chars")
        if not isinstance(chars, str):
            raise DataError("vocabulary object lacks a 'chars' string")
        return cls(list(chars))

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._chars == other._chars


@dataclass(frozen=True)
class RawExample:
    """One record: an id, cleaned text, an event type, and zero or more
    gold entities. ``entities`` (plural) wins over ``entity`` when both
    are present."""
    id: str
    text: str
    event_type: str
    entity: str | None = None
    entities: tuple[str, ...] | None = None

    @property
    def gold_entities(self) -> tuple[str, ...]:
        if self.entities is not None:
            return self.entities
        if self.entity is not None:
            return (self.entity,)
        return ()


@dataclass
class TokenizedInput:
    """An encoded example. ``text_span`` is the inclusive [first, last]
    token range holding text chars; ``gold`` is the inclusive token span
    of the gold entity, when one exists. ``text`` keeps the (possibly
    truncated) cleaned text so spans can be turned back into strings."""
    token_ids: np.ndarray
    segment_ids: np.ndarray
    attention_mask: np.ndarray
    text_span: tuple[int, int]
    gold: tuple[int, int] | None
    example_id: str
    text: str


def encode_example(ex: RawExample, vocab: Vocabulary, max_len: int,
                   gold_entity: str | None = None) -> TokenizedInput:
    """Tokenize one example. ``gold_entity`` overrides the example's own
    entity (used when a multi-entity example is flattened for training);
    pass None to use ``ex.gold_entities[0]`` or to encode without a gold.
    """
    if not ex.text:
        raise EmptyTextError(f"example {ex.id!r} has empty text")
    if not ex.event_type:
        raise ContractError(f"example {ex.id!r} has an empty event type")
    budget = max_len - 3 - len(ex.event_type)
    if budget < 1:
        raise ContractError(
            f"max_len {max_len} cannot fit event type of length {len(ex.event_type)} "
            f"plus specials and one text char")
    text = ex.text[:budget]

    ids = [CLS_ID] + vocab.encode(text) + [SEP_ID] + vocab.encode(ex.event_type) + [SEP_ID]
    n = len(ids)
    seg_split = 2 + len(text)  # first index of segment 1
    segments = [0] * seg_split + [1] * (n - seg_split)

    gold = None
    if gold_entity is None and ex.gold_entities:
        gold_entity = ex.gold_entities[0]
    if gold_entity is not None:
        pos = text.find(gold_entity)
        if pos < 0 or not gold_entity:
            raise GoldNotFoundError(ex.id, gold_entity)
        gold = (1 + pos, 1 + pos + len(gold_entity) - 1)

    return TokenizedInput(
        token_ids=np.asarray(ids, dtype=np.int64),
        segment_ids=np.asarray(segments, dtype=np.int64),
        attention_mask=np.ones(n, dtype=bool),
        text_span=(1, len(text)),
        gold=gold,
        example_id=ex.id,
        text=text,
    )


@dataclass
class Batch:
    """Stacked, right-padded encoded examples. ``golds`` holds -1 pairs
    for examples without a gold span."""
    token_ids: np.ndarray       # [B, L] int64
    segment_ids: np.ndarray     # [B, L] int64
    attention_mask: np.ndarray  # [B, L] bool
    text_spans: np.ndarray      # [B, 2] int64, inclusive
    golds: np.ndarray           # [B, 2] int64, -1 when absent
    items: list[TokenizedInput] = field(repr=False, default_factory=list)

    def __len__(self) -> int:
        return self.token_ids.shape[0]


def batch(inputs: Sequence[TokenizedInput], length: int | None = None) -> Batch:
    """Right-pad to ``length``, or to the longest sequence in the batch,
    and stack."""
    if not inputs:
        raise ContractError("batch of zero examples")
    longest = max(t.token_ids.shape[0] for t in inputs)
    if length is None:
        length = longest
    elif length < longest:
        raise ContractError(f"cannot pad a {longest}-token example to length {length}")
    b = len(inputs)
    token_ids = np.full((b, length), PAD_ID, dtype=np.int64)
    segment_ids = np.zeros((b, length), dtype=np.int64)
    mask = np.zeros((b, length), dtype=bool)
    spans = np.zeros((b, 2), dtype=np.int64)
    golds = np.full((b, 2), -1, dtype=np.int64)
    for i, t in enumerate(inputs):
        n = t.token_ids.shape[0]
        token_ids[i, :n] = t.token_ids
        segment_ids[i, :n] = t.segment_ids
        mask[i, :n] = t.attention_mask
        spans[i] = t.text_span
        if t.gold is not None:
            golds[i] = t.gold
    return Batch(token_ids, segment_ids, mask, spans, golds, list(inputs))


def flatten_for_training(examples: Iterable[RawExample]) -> list[RawExample]:
    """One training record per gold entity; examples without golds are
    dropped. Multi-entity ids gain a #index suffix so records stay
    distinct."""
    out = []
    for ex in examples:
        golds = ex.gold_entities
        if len(golds) <= 1:
            if golds:
                out.append(ex)
            continue
        for j, g in enumerate(golds):
            out.append(RawExample(id=f"{ex.id}#{j}", text=ex.text,
                                  event_type=ex.event_type, entity=g))
    return out


def _parse_record(obj: dict, line: int) -> tuple[str, RawExample]:
    """One example record, keyed by its id."""
    for key in ("id", "text", "event_type"):
        if key not in obj:
            raise DataError(f"missing required field {key!r}", line)
        if not isinstance(obj[key], str):
            raise DataError(f"field {key!r} must be a string", line)
    try:
        text = clean_text(obj["text"])
        event_type = clean_text(obj["event_type"])
    except EmptyTextError as e:
        raise DataError(str(e), line) from e

    entities = None
    entity = None
    if "entities" in obj and obj["entities"] is not None:
        raw = obj["entities"]
        if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
            raise DataError("field 'entities' must be a list of strings", line)
        try:
            entities = tuple(clean_text(x) for x in raw)
        except EmptyTextError as e:
            raise DataError(f"entity entry: {e}", line) from e
    elif "entity" in obj and obj["entity"] is not None:
        if not isinstance(obj["entity"], str):
            raise DataError("field 'entity' must be a string", line)
        try:
            entity = clean_text(obj["entity"])
        except EmptyTextError as e:
            raise DataError(f"entity: {e}", line) from e
    return obj["id"], RawExample(id=obj["id"], text=text, event_type=event_type,
                                 entity=entity, entities=entities)


def read_jsonl(path, parse: Callable[[dict, int], tuple[str, object]]) -> dict:
    """``parse(record, line_no)`` gives (id, value) for each JSON object
    line of ``path``; the values are returned keyed by id, in file order.
    Blank lines are skipped. Raises ``DataError`` with the 1-based line
    number on bytes that are not UTF-8, invalid JSON, a line that is not
    an object, and the second record that reuses an id."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as e:
        # lines split as a text-mode file splits them: \n, \r\n or \r
        head = io.StringIO(blob[:e.start].decode("utf-8"), newline=None).read()
        raise DataError(f"not UTF-8: {e.reason}", head.count("\n") + 1) from e
    out: dict = {}
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"invalid JSON: {e.msg}", line_no) from e
        if not isinstance(obj, dict):
            raise DataError("record is not a JSON object", line_no)
        key, value = parse(obj, line_no)
        if key in out:
            raise DataError(f"duplicate id {key!r}", line_no)
        out[key] = value
    return out


def load_jsonl(path) -> list[RawExample]:
    """The examples of a JSONL file, checked as ``read_jsonl`` describes."""
    return list(read_jsonl(path, _parse_record).values())


def write_jsonl(examples: Iterable[RawExample], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            obj: dict = {"id": ex.id, "text": ex.text, "event_type": ex.event_type}
            if ex.entities is not None:
                obj["entities"] = list(ex.entities)
            elif ex.entity is not None:
                obj["entity"] = ex.entity
            f.write(json.dumps(obj, ensure_ascii=False) + "\n")


# --- synthetic corpus -------------------------------------------------------

# Each event type announces its entity with a cue char that also occurs in
# the type string itself, so the encoder can match it by char identity; the
# entity is always the name directly after the matched cue. Alphabets are
# disjoint so names never collide with cues or filler.
EVENT_CUES: dict[str, str] = {
    "质押": "押",
    "减持": "减",
    "收购": "购",
    "起诉": "诉",
}
_NAME_CHARS = "安邦晨达恒鸿嘉金凯隆茂宁鹏荣盛泰腾威鑫雅永源"
_FILLER_CHARS = "今日公告称将于近期完成相关事项并持续推进中已据悉"
_NAME_LEN = (2, 3)
# An example draws names until it holds its golds (at most 3) and its
# distractors, none a substring of another. Each accepted name rules out at
# most 37 of the 20*19*18 = 6,840 three-char names, and half the draws are
# three chars. With at most 98 names accepted, a draw succeeds with chance
# above 0.5 * (6840 - 37*98) / 6840 > 0.2.
MAX_DISTRACTORS = 96


@dataclass
class SynthConfig:
    """Knobs for the generator. ``multi_entity_fraction`` of examples get
    2-3 gold entities (the cue repeats); the rest get exactly one.
    ``max_distractors`` is at most ``MAX_DISTRACTORS`` (96), a bound at
    which every example surely finds its distinct names."""
    n_examples: int = 1000
    multi_entity_fraction: float = 0.0
    min_distractors: int = 1
    max_distractors: int = 2
    filler_len: tuple[int, int] = (2, 4)

    def __post_init__(self):
        if self.n_examples < 1:
            raise ContractError(f"n_examples must be positive, got {self.n_examples}")
        if not 0.0 <= self.multi_entity_fraction <= 1.0:
            raise ContractError(
                f"multi_entity_fraction must be in [0, 1], got {self.multi_entity_fraction}")
        if not 0 <= self.min_distractors <= self.max_distractors <= MAX_DISTRACTORS:
            raise ContractError(f"distractor bounds must satisfy 0 <= min <= max <= "
                                f"{MAX_DISTRACTORS}")


def _sample_name(rng: np.random.Generator, lo: int, hi: int) -> str:
    n = int(rng.integers(lo, hi + 1))
    picks = rng.choice(len(_NAME_CHARS), size=n, replace=False)
    return "".join(_NAME_CHARS[i] for i in picks)


def _sample_filler(rng: np.random.Generator, lo: int, hi: int) -> str:
    n = int(rng.integers(lo, hi + 1))
    picks = rng.integers(0, len(_FILLER_CHARS), size=n)
    return "".join(_FILLER_CHARS[i] for i in picks)


def generate_synthetic(cfg: SynthConfig, seed: int) -> list[RawExample]:
    """Deterministic corpus: same config and seed, same examples."""
    rng = np.random.default_rng(seed)
    types = list(EVENT_CUES)
    out = []
    for i in range(cfg.n_examples):
        event_type = types[int(rng.integers(len(types)))]
        n_gold = 1
        if cfg.multi_entity_fraction > 0 and rng.random() < cfg.multi_entity_fraction:
            n_gold = int(rng.integers(2, 4))
        n_distract = int(rng.integers(cfg.min_distractors, cfg.max_distractors + 1))
        others = [t for t in types if t != event_type]

        # names must be distinct and never substrings of one another, so the
        # first occurrence of a gold is always its own slot
        names: list[str] = []
        while len(names) < n_gold + n_distract:
            cand = _sample_name(rng, *_NAME_LEN)
            if all(cand not in n and n not in cand for n in names):
                names.append(cand)

        slots = [(EVENT_CUES[event_type], names[j], True) for j in range(n_gold)]
        for j in range(n_distract):
            other = others[int(rng.integers(len(others)))]
            slots.append((EVENT_CUES[other], names[n_gold + j], False))
        order = rng.permutation(len(slots))

        parts = [_sample_filler(rng, *cfg.filler_len)]
        golds_in_order: list[str] = []
        for idx in order:
            cue, name, is_gold = slots[idx]
            parts.append(cue + name)
            parts.append(_sample_filler(rng, *cfg.filler_len))
            if is_gold:
                golds_in_order.append(name)
        text = "".join(parts)

        ex_id = f"syn-{i:06d}"
        if n_gold == 1:
            out.append(RawExample(id=ex_id, text=text, event_type=event_type,
                                  entity=golds_in_order[0]))
        else:
            out.append(RawExample(id=ex_id, text=text, event_type=event_type,
                                  entities=tuple(golds_in_order)))
    return out
