"""Command-line interface: train, eval, predict, inspect, and synth.

Configuration is a flat INI file with [run], [model], [data], and
[synth] sections; any key can be overridden by a flag of the same name.
Human-readable progress goes to stderr, machine-readable artifacts
(training log, predictions, reports) go to files or stdout.

Exit codes: 0 success, 1 usage error, 2 data error, 3 divergence.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .data import (
    SynthConfig,
    Vocabulary,
    batch,
    encode_example,
    flatten_for_training,
    generate_synthetic,
    load_jsonl,
    read_jsonl,
    write_jsonl,
)
from .encoder import EncoderConfig
from .errors import (
    ContractError,
    DataError,
    DivergenceError,
    GoldNotFoundError,
    SebertNetsError,
    UsageError,
)
from .evaluation import evaluate
from .model import (
    BERT_BASELINE,
    HSEBERTNETS,
    SEBERTNETS,
    Model,
    ModelConfig,
)
from .optim import AdamState, SwatsState, make_state
from .span import RecallConfig

log = logging.getLogger("sebertnets")

_VARIANT_ALIASES = {
    "bert": BERT_BASELINE,
    "bert_baseline": BERT_BASELINE,
    "sebertnets": SEBERTNETS,
    "hsebertnets": HSEBERTNETS,
}


def _key(default, section: str, help_text: str, ini: str | None = None):
    """A config key: ``[section] ini`` in the INI file (``ini`` defaults
    to the field name) and ``--ini`` on the command line, cast to the
    default's type (``str`` when the default is ``None``)."""
    caster = str if default is None else type(default)
    return dataclasses.field(default=default, metadata={
        "section": section, "help": help_text, "ini": ini, "type": caster})


@dataclass
class RunConfig:
    """Every tunable of a run, with paper-default hyper-parameters; the
    fields are the only config schema."""

    variant: str = _key(ModelConfig.variant, "run",
                        "model variant: bert, sebertnets, or hsebertnets")
    seed: int = _key(0, "run", "random seed")
    epochs: int = _key(5, "run", "training epochs")
    batch_size: int = _key(32, "run", "examples per step")
    optimizer: str = _key("adam", "run", "adam, sgd, or swats")
    lr: float = _key(AdamState.lr, "run", "learning rate")
    eps_switch: float = _key(SwatsState.eps_switch, "run", "swats switch threshold")
    top_k: int = _key(RecallConfig.k, "run", "candidates per example")
    match_mode: str = _key("any", "run", "count a hit on any or all gold entities")
    max_span_len: int = _key(RecallConfig.max_span_len, "run", "longest decodable span")
    d_model: int = _key(EncoderConfig.d_model, "model", "encoder width")
    n_layers: int = _key(EncoderConfig.n_layers, "model", "encoder layers")
    n_heads: int = _key(EncoderConfig.n_heads, "model", "attention heads")
    d_ff: int = _key(EncoderConfig.d_ff, "model", "feed-forward width")
    dropout: float = _key(EncoderConfig.dropout_rate, "model", "dropout rate")
    activation: str = _key(EncoderConfig.activation, "model", "relu or gelu")
    cell: str = _key(ModelConfig.cell, "model", "recurrent cell: lstm or gru")
    hidden: int = _key(200, "model", "recurrent hidden size")
    max_len: int = _key(EncoderConfig.max_len, "model", "token budget per example")
    train: str | None = _key(None, "data", "training data JSONL")
    dev: str | None = _key(None, "data", "dev data JSONL")
    checkpoint: str = _key("model.sebn", "data", "checkpoint output path")
    log_path: str = _key("train_log.jsonl", "data", "training log output path",
                         ini="log")
    n_examples: int = _key(SynthConfig.n_examples, "synth", "synthetic corpus size")
    multi_entity_fraction: float = _key(SynthConfig.multi_entity_fraction, "synth",
                                        "share of multi-entity examples")
    min_distractors: int = _key(SynthConfig.min_distractors, "synth", "fewest distractor cues")
    max_distractors: int = _key(SynthConfig.max_distractors, "synth", "most distractor cues")

    def encoder_config(self, vocab_size: int = 1) -> EncoderConfig:
        return EncoderConfig(
            vocab_size=vocab_size, d_model=self.d_model, n_layers=self.n_layers,
            n_heads=self.n_heads, d_ff=self.d_ff, max_len=self.max_len,
            dropout_rate=self.dropout, activation=self.activation)

    def model_config(self) -> ModelConfig:
        return ModelConfig(variant=self.variant, cell=self.cell, hidden_size=self.hidden)

    def optimizer_state(self):
        return make_state(self.optimizer, lr=self.lr, eps_switch=self.eps_switch)

    def synth_config(self) -> SynthConfig:
        # the [synth] keys are SynthConfig's field names
        return SynthConfig(**{key: getattr(self, key) for key in _keys_in("synth")})

    def validate(self) -> None:
        """Resolve the variant alias and check the run-only keys, then build
        each owner's config so that it checks the rest."""
        if self.variant not in _VARIANT_ALIASES:
            raise UsageError(
                f"variant must be one of {sorted(_VARIANT_ALIASES)}, "
                f"got {self.variant!r}"
            )
        self.variant = _VARIANT_ALIASES[self.variant]
        if self.match_mode not in ("any", "all"):
            raise UsageError(f"match_mode must be any or all, "
                             f"got {self.match_mode!r}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise UsageError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        try:
            self.encoder_config()
            self.model_config()
            self.optimizer_state()
            self.synth_config()
            RecallConfig(k=self.top_k, max_span_len=self.max_span_len)
        except ContractError as exc:
            raise UsageError(str(exc)) from exc


# INI key (and flag dest) -> field
_KEYS = {f.metadata["ini"] or f.name: f for f in dataclasses.fields(RunConfig)}


def _keys_in(*sections: str) -> list[str]:
    return [key for key, f in _KEYS.items() if f.metadata["section"] in sections]


def _require_path(path, what: str) -> str:
    if not path:
        raise UsageError(f"{what} path is required")
    if not os.path.exists(path):
        raise UsageError(f"{what} path {path!r} does not exist")
    return path


def _require_target(path, what: str) -> str:
    """``path`` as a file to be written: not a directory, in one that exists."""
    if not path:
        raise UsageError(f"{what} path is required")
    if os.path.isdir(path):
        raise UsageError(f"{what} path {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"{what} path {path!r} is in a directory that does not exist")
    return path


def _parse_ini(path: str, cfg: RunConfig) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"config {path!r}: {exc}") from exc
    for section in parser.sections():
        keys = _keys_in(section)
        if not keys:
            raise UsageError(f"config {path!r}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in keys:
                raise UsageError(
                    f"config {path!r}: unknown key {key!r} in [{section}]"
                )
            caster = _KEYS[key].metadata["type"]
            try:
                setattr(cfg, _KEYS[key].name, caster(raw))
            except ValueError as exc:
                raise UsageError(
                    f"config {path!r}: key {key!r} needs a {caster.__name__}, "
                    f"got {raw!r}"
                ) from exc
    return cfg


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    config_path = getattr(args, "config", None)
    if config_path:
        _require_path(config_path, "config")
        cfg = _parse_ini(config_path, cfg)
    for key, f in _KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


# --------------------------------------------------------------- helpers


def _encode_for_training(examples, vocab, max_len):
    kept = []
    skipped = 0
    for ex in examples:
        try:
            kept.append(encode_example(ex, vocab, max_len))
        except GoldNotFoundError as exc:
            skipped += 1
            log.warning("skipping %s: %s", ex.id, exc)
    return kept, skipped


def _encode_for_inference(examples, model: Model):
    """Encode for ``model`` with the gold entities removed."""
    return [encode_example(dataclasses.replace(ex, entity=None, entities=None),
                           model.vocab, model.enc_cfg.max_len) for ex in examples]


def _batches(encoded, batch_size, order=None, length=None):
    idx = order if order is not None else range(len(encoded))
    for i in range(0, len(idx), batch_size):
        yield batch([encoded[j] for j in idx[i:i + batch_size]], length)


def _predictions(model: Model, encoded, cfg: RunConfig) -> dict[str, list]:
    recall = model.recall_config(k=cfg.top_k, max_span_len=cfg.max_span_len)
    out: dict[str, list] = {}
    for b in _batches(encoded, cfg.batch_size):
        for item, cands in zip(b.items, model.predict(b, recall)):
            out[item.example_id] = cands
    return out


def _score(texts: dict[str, list[str]], examples, cfg: RunConfig):
    gold = {ex.id: list(ex.gold_entities) for ex in examples}
    return evaluate(texts, gold, k_max=cfg.top_k, match_mode=cfg.match_mode)


def _texts(preds: dict[str, list]) -> dict[str, list[str]]:
    return {k: [c.entity_text for c in v] for k, v in preds.items()}


def _load_model(args) -> Model:
    """The ``--checkpoint`` model, as its checkpoint stores it."""
    model, _ = Model.load(_require_path(args.checkpoint, "checkpoint"))
    return model


@contextlib.contextmanager
def _output(path):
    """``path`` opened for writing, or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


# -------------------------------------------------------------- commands


def cmd_train(args) -> None:
    cfg = _build_config(args)
    # checked now, not when it is written after the last epoch
    _require_target(cfg.checkpoint, "checkpoint")
    raw = load_jsonl(_require_path(cfg.train, "training data"))
    flat = flatten_for_training(raw)
    if not flat:
        raise DataError("training data holds no examples with a gold entity")
    vocab = Vocabulary.from_corpus(flat)
    encoded, skipped = _encode_for_training(flat, vocab, cfg.max_len)
    if skipped:
        log.warning("%d example(s) skipped: gold not in (truncated) text", skipped)
    if not encoded:
        raise DataError("no trainable examples survived encoding")

    model = Model(cfg.model_config(), cfg.encoder_config(vocab.size), vocab,
                  seed=cfg.seed)
    dev_raw = None
    dev_encoded = None
    if cfg.dev:
        dev_raw = load_jsonl(_require_path(cfg.dev, "dev data"))
        dev_encoded = _encode_for_inference(dev_raw, model)
    state = cfg.optimizer_state()
    rng = np.random.default_rng(cfg.seed)

    log.info("training %s on %d examples (%d chars), %d epoch(s)",
             cfg.variant, len(encoded), vocab.size, cfg.epochs)
    # One padded length for every training batch, and an exact sum of the
    # examples' fp64 losses: the epoch loss then depends on the shuffle
    # only through the row count of the recurrent layer's products.
    length = max(t.token_ids.shape[0] for t in encoded)
    with open(cfg.log_path, "w", encoding="utf-8") as lf:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(len(encoded))
            losses: list[float] = []
            for b in _batches(encoded, cfg.batch_size, order, length):
                model.train_step(b, state, rng, losses)
            mean_loss = math.fsum(losses) / len(losses)
            record = {"epoch": epoch, "loss": mean_loss,
                      "dev_f1": None, "phase": state.phase}
            if dev_encoded is not None:
                texts = _texts(_predictions(model, dev_encoded, cfg))
                record["dev_f1"] = list(_score(texts, dev_raw, cfg).f1)
            lf.write(json.dumps(record, ensure_ascii=False) + "\n")
            log.info("epoch %d: loss %.4f%s", epoch, mean_loss,
                     "" if record["dev_f1"] is None
                     else f", dev F1@1 {record['dev_f1'][0]:.3f}")
    model.save(cfg.checkpoint, state)
    log.info("checkpoint written to %s, log to %s", cfg.checkpoint, cfg.log_path)


def _prediction_texts(obj: dict, line: int) -> tuple[str, list[str]]:
    """One ``predict`` output record: its id and candidate texts."""
    entities = obj.get("entities")
    if "id" not in obj or not isinstance(entities, list) or not all(
            isinstance(e, dict) and "text" in e for e in entities):
        raise DataError("prediction record needs an 'id' and an 'entities' "
                        "list of objects with a 'text'", line=line)
    return str(obj["id"]), [str(e["text"]) for e in entities]


def cmd_eval(args) -> None:
    cfg = _build_config(args)
    examples = load_jsonl(_require_path(args.data, "data"))
    if args.predictions:
        texts = read_jsonl(_require_path(args.predictions, "predictions"),
                           _prediction_texts)
    else:
        model = _load_model(args)
        texts = _texts(_predictions(model, _encode_for_inference(examples, model), cfg))
    rep = _score(texts, examples, cfg)
    if args.json:
        print(rep.to_json())
    else:
        print(rep.render_table())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(rep.to_json() + "\n")


def cmd_predict(args) -> None:
    cfg = _build_config(args)
    examples = load_jsonl(_require_path(args.data, "data"))
    model = _load_model(args)
    preds = _predictions(model, _encode_for_inference(examples, model), cfg)
    with _output(args.out) as out:
        for ex in examples:
            cands = preds[ex.id]
            line = {
                "id": ex.id,
                "entities": [
                    {"text": c.entity_text, "score": c.score,
                     "start": c.start, "end": c.end}
                    for c in cands
                ],
            }
            out.write(json.dumps(line, ensure_ascii=False) + "\n")


def cmd_inspect(args) -> None:
    examples = load_jsonl(_require_path(args.data, "data"))
    wanted = [ex for ex in examples if ex.id == args.example_id]
    if not wanted:
        raise DataError(f"example id {args.example_id!r} not found in {args.data}")
    model = _load_model(args)
    b = batch(_encode_for_inference(wanted[:1], model))
    _, attentions = model.forward(b)
    labels = [model.vocab.token_label(int(t)) for t in b.token_ids[0]]

    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["layer", "head", "query_token"] + labels)
        for layer_idx, att in enumerate(attentions):
            n_heads = att.shape[1]
            for head in range(n_heads):
                for q, q_label in enumerate(labels):
                    weights = [f"{w:.8f}" for w in att[0, head, q]]
                    writer.writerow([layer_idx, head, q_label] + weights)


def cmd_synth(args) -> None:
    cfg = _build_config(args)
    if not args.out:
        raise UsageError("synth requires --out")
    examples = generate_synthetic(cfg.synth_config(), seed=cfg.seed)
    write_jsonl(examples, args.out)
    log.info("wrote %d examples to %s", len(examples), args.out)


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_flags(sp, keys):
    for key in keys:
        f = _KEYS[key]
        sp.add_argument(f"--{key.replace('_', '-')}", type=f.metadata["type"],
                        default=None, dest=key, help=f.metadata["help"])


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sebertnets",
                description="Event-entity extraction: train, evaluate, "
                            "predict, inspect attention, make synthetic data.")
    sub = p.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="train a model and write a checkpoint")
    tr.add_argument("--config", default=None, help="INI config path")
    _add_flags(tr, _keys_in("run", "model", "data"))
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint or prediction file")
    ev.add_argument("--checkpoint", default=None)
    ev.add_argument("--predictions", default=None,
                    help="score this prediction JSONL instead of a checkpoint")
    ev.add_argument("--data", required=True)
    _add_flags(ev, ["top_k", "match_mode", "max_span_len", "batch_size"])
    ev.add_argument("--json", action="store_true",
                    help="print the report as JSON instead of a table")
    ev.add_argument("--json-out", default=None, dest="json_out",
                    help="also write the JSON report here")
    ev.set_defaults(func=cmd_eval)

    pr = sub.add_parser("predict", help="emit ranked entities as JSONL")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--data", required=True)
    _add_flags(pr, ["top_k", "max_span_len", "batch_size"])
    pr.add_argument("--out", default=None, help="output path (default stdout)")
    pr.set_defaults(func=cmd_predict)

    ins = sub.add_parser("inspect",
                         help="dump attention weights for one example as CSV")
    ins.add_argument("--checkpoint", required=True)
    ins.add_argument("--data", required=True)
    ins.add_argument("--example-id", required=True, dest="example_id")
    ins.add_argument("--out", default=None, help="output path (default stdout)")
    ins.set_defaults(func=cmd_inspect)

    sy = sub.add_parser("synth", help="write a synthetic corpus as JSONL")
    sy.add_argument("--config", default=None, help="INI config path")
    sy.add_argument("--out", required=True)
    _add_flags(sy, ["seed", *_keys_in("synth")])
    sy.set_defaults(func=cmd_synth)
    return p


def console_main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except SebertNetsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console_main())
