"""End-to-end CLI tests driven through console_main (in-process)."""

import csv
import io
import json
import struct

import numpy as np
import pytest

from sebertnets.cli import console_main
from sebertnets.data import SynthConfig, generate_synthetic, load_jsonl, write_jsonl
from sebertnets.errors import DivergenceError


def make_corpus(path, n=16, seed=0, multi=0.0):
    examples = generate_synthetic(
        SynthConfig(n_examples=n, multi_entity_fraction=multi), seed=seed)
    write_jsonl(examples, path)
    return examples


def write_config(path, train, dev, ckpt, log, extra_run=""):
    path.write_text(
        f"""
[run]
variant = sebertnets
seed = 3
epochs = 2
batch_size = 8
lr = 0.002
top_k = 3
{extra_run}

[model]
d_model = 8
n_layers = 1
n_heads = 2
d_ff = 16
hidden = 4
max_len = 40
dropout = 0.0

[data]
train = {train}
dev = {dev}
checkpoint = {ckpt}
log = {log}
""",
        encoding="utf-8",
    )


@pytest.fixture()
def trained(tmp_path):
    """A trained tiny checkpoint plus its corpus paths."""
    train = tmp_path / "train.jsonl"
    dev = tmp_path / "dev.jsonl"
    make_corpus(train, n=16, seed=0)
    make_corpus(dev, n=8, seed=1)
    ckpt = tmp_path / "model.sebn"
    log = tmp_path / "log.jsonl"
    cfg = tmp_path / "run.ini"
    write_config(cfg, train, dev, ckpt, log)
    assert console_main(["train", "--config", str(cfg)]) == 0
    return {"train": train, "dev": dev, "ckpt": ckpt, "log": log, "cfg": cfg,
            "tmp": tmp_path}


# ---------------------------------------------------------------- synth


def test_synth_writes_deterministic_corpus(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert console_main(["synth", "--out", str(a), "--n-examples", "12",
                         "--seed", "5"]) == 0
    assert console_main(["synth", "--out", str(b), "--n-examples", "12",
                         "--seed", "5"]) == 0
    assert a.read_bytes() == b.read_bytes()
    examples = load_jsonl(a)
    assert len(examples) == 12


def test_synth_multi_entity_flag(tmp_path):
    out = tmp_path / "m.jsonl"
    assert console_main(["synth", "--out", str(out), "--n-examples", "20",
                         "--multi-entity-fraction", "1.0"]) == 0
    examples = load_jsonl(out)
    assert all(len(ex.gold_entities) >= 2 for ex in examples)


def test_synth_requires_out():
    assert console_main(["synth", "--n-examples", "4"]) == 1


# ---------------------------------------------------------------- train


def test_train_writes_checkpoint_and_log(trained):
    assert trained["ckpt"].exists()
    lines = trained["log"].read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines, start=1):
        rec = json.loads(line)
        assert rec["epoch"] == i
        assert np.isfinite(rec["loss"])
        assert rec["phase"] == "adam"
        assert len(rec["dev_f1"]) == 3


def test_train_same_seed_identical_logs(tmp_path):
    train = tmp_path / "train.jsonl"
    make_corpus(train, n=12, seed=0)
    logs = []
    for name in ("one", "two"):
        ckpt = tmp_path / f"{name}.sebn"
        log = tmp_path / f"{name}.log.jsonl"
        cfg = tmp_path / f"{name}.ini"
        write_config(cfg, train, "", ckpt, log)
        # no dev set: blank the dev key by overriding with the train set
        assert console_main(["train", "--config", str(cfg),
                             "--dev", str(train)]) == 0
        logs.append(log.read_bytes())
    assert logs[0] == logs[1]


def test_train_zero_lr_flat_dev_f1(tmp_path):
    train = tmp_path / "train.jsonl"
    dev = tmp_path / "dev.jsonl"
    make_corpus(train, n=12, seed=0)
    make_corpus(dev, n=8, seed=1)
    ckpt = tmp_path / "m.sebn"
    log = tmp_path / "l.jsonl"
    cfg = tmp_path / "c.ini"
    write_config(cfg, train, dev, ckpt, log)
    assert console_main(["train", "--config", str(cfg), "--lr", "0",
                         "--optimizer", "sgd", "--epochs", "3"]) == 0
    recs = [json.loads(l) for l in log.read_text().splitlines()]
    assert len(recs) == 3
    assert recs[0]["dev_f1"] == recs[1]["dev_f1"] == recs[2]["dev_f1"]
    assert recs[0]["loss"] == recs[1]["loss"] == recs[2]["loss"]
    assert recs[0]["phase"] == "sgd"


def test_flag_overrides_config(tmp_path):
    train = tmp_path / "train.jsonl"
    make_corpus(train, n=8, seed=0)
    ckpt = tmp_path / "m.sebn"
    log = tmp_path / "l.jsonl"
    cfg = tmp_path / "c.ini"
    write_config(cfg, train, "", ckpt, log)
    assert console_main(["train", "--config", str(cfg), "--dev", str(train),
                         "--epochs", "1"]) == 0
    assert len(log.read_text().splitlines()) == 1


def test_train_missing_data_is_usage_error(tmp_path):
    assert console_main(["train", "--train", str(tmp_path / "nope.jsonl")]) == 1
    assert console_main(["train"]) == 1  # no train path at all


def test_bad_config_key_is_usage_error(tmp_path, capsys):
    """Each bad config is named in a usage error (exit 1). The run has
    every path it needs, so an error that went unnoticed would train."""
    train = tmp_path / "train.jsonl"
    make_corpus(train, n=8)
    cfg = tmp_path / "c.ini"
    argv = ["train", "--config", str(cfg), "--train", str(train),
            "--checkpoint", str(tmp_path / "m.sebn"), "--log", str(tmp_path / "l.jsonl")]
    for text, message in [
        (b"[run]\nwarp_speed = 9\n", "unknown key 'warp_speed' in [run]"),
        (b"[warp]\nx = 1\n", "unknown section [warp]"),
        (b"[run]\nepochs = many\n", "needs a int"),
        (b"[run]\nepochs = \xff\n", "can't decode byte 0xff"),
        # [DEFAULT] is a section like any other, and no known one
        (b"[DEFAULT]\nepochs = 0\n", "unknown section [DEFAULT]"),
        (b"[DEFAULT]\nx = 1\n[model]\ncell = gru\n", "unknown section [DEFAULT]"),
    ]:
        cfg.write_bytes(text)
        capsys.readouterr()
        assert console_main(argv) == 1, text
        assert message in capsys.readouterr().err, text
    assert not (tmp_path / "m.sebn").exists()


def test_bad_variant_is_usage_error(tmp_path):
    train = tmp_path / "train.jsonl"
    make_corpus(train, n=8)
    assert console_main(["train", "--train", str(train),
                         "--variant", "roberta"]) == 1


@pytest.mark.parametrize("argv", [
    ["train", "--lr", "nan"], ["train", "--lr", "inf"], ["train", "--lr", "-0.1"],
    ["train", "--optimizer", "swats", "--eps-switch", "nan"],
    ["train", "--seed", "-1"], ["synth", "--seed", "-1"],
    ["synth", "--max-distractors", "97"],
], ids=["lr-nan", "lr-inf", "lr-negative", "eps-switch-nan", "train-seed-negative",
        "synth-seed-negative", "too-many-distractors"])
def test_bad_run_value_is_usage_error(tmp_path, capsys, argv):
    """A rate that is negative or not finite, a negative seed, or more
    distractors than the name alphabet holds exits 1 before any work."""
    train = tmp_path / "train.jsonl"
    make_corpus(train, n=8)
    out = tmp_path / "out.jsonl"
    paths = (["--train", str(train), "--dev", str(train),
              "--checkpoint", str(tmp_path / "m.sebn"), "--log", str(out)]
             if argv[0] == "train" else ["--out", str(out)])
    assert console_main(argv + paths) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_data_is_data_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a"}\n', encoding="utf-8")
    assert console_main(["train", "--train", str(bad)]) == 2


def test_divergence_exit_code(tmp_path, monkeypatch):
    train = tmp_path / "train.jsonl"
    make_corpus(train, n=8, seed=0)
    from sebertnets.model import Model

    def blow_up(self, *a, **k):
        raise DivergenceError("loss became nan at training step 1")

    monkeypatch.setattr(Model, "train_step", blow_up)
    assert console_main(["train", "--train", str(train), "--epochs", "1",
                         "--d-model", "8", "--n-heads", "2", "--d-ff", "16",
                         "--hidden", "4", "--max-len", "40",
                         "--checkpoint", str(tmp_path / "m.sebn"),
                         "--log", str(tmp_path / "l.jsonl")]) == 3


def test_argparse_errors_map_to_usage(capsys):
    assert console_main(["warp"]) == 1
    assert console_main([]) == 1
    assert console_main(["eval", "--no-such-flag", "x"]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------- eval


def test_eval_table_and_json(trained, capsys):
    code = console_main(["eval", "--checkpoint", str(trained["ckpt"]),
                         "--data", str(trained["dev"]), "--top-k", "3"])
    assert code == 0
    table = capsys.readouterr().out
    assert "F1" in table and len(table.splitlines()) == 5

    json_out = trained["tmp"] / "report.json"
    code = console_main(["eval", "--checkpoint", str(trained["ckpt"]),
                         "--data", str(trained["dev"]), "--top-k", "3",
                         "--json", "--json-out", str(json_out)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads(json_out.read_text(encoding="utf-8"))
    assert printed == on_disk
    assert [row["k"] for row in printed["top_k"]] == [1, 2, 3]
    f1s = [row["f1"] for row in printed["top_k"]]
    assert f1s == sorted(f1s)


def test_eval_corrupt_checkpoint(trained, capsys, tmp_path):
    bad = tmp_path / "bad.sebn"
    bad.write_bytes(b"XXXX" + trained["ckpt"].read_bytes()[4:])
    code = console_main(["eval", "--checkpoint", str(bad),
                         "--data", str(trained["dev"])])
    assert code == 2
    capsys.readouterr()


# -------------------------------------------------------------- predict


def test_predict_top1_single_entity_lines(trained, capsys):
    code = console_main(["predict", "--checkpoint", str(trained["ckpt"]),
                         "--data", str(trained["dev"]), "--top-k", "1"])
    assert code == 0
    out = capsys.readouterr().out
    examples = load_jsonl(trained["dev"])
    lines = out.splitlines()
    assert len(lines) == len(examples)
    for line, ex in zip(lines, examples):
        rec = json.loads(line)
        assert rec["id"] == ex.id
        assert len(rec["entities"]) == 1
        ent = rec["entities"][0]
        assert set(ent) == {"text", "score", "start", "end"}
        assert ent["start"] <= ent["end"]


def test_predict_to_file_deterministic(trained):
    outs = []
    for name in ("p1.jsonl", "p2.jsonl"):
        out = trained["tmp"] / name
        assert console_main(["predict", "--checkpoint", str(trained["ckpt"]),
                             "--data", str(trained["dev"]), "--top-k", "3",
                             "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_pipeline_consistency(trained, capsys):
    """eval over predict's output equals eval run directly."""
    pred_path = trained["tmp"] / "preds.jsonl"
    assert console_main(["predict", "--checkpoint", str(trained["ckpt"]),
                         "--data", str(trained["dev"]), "--top-k", "3",
                         "--out", str(pred_path)]) == 0
    assert console_main(["eval", "--checkpoint", str(trained["ckpt"]),
                         "--data", str(trained["dev"]), "--top-k", "3",
                         "--json"]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert console_main(["eval", "--predictions", str(pred_path),
                         "--data", str(trained["dev"]), "--top-k", "3",
                         "--json"]) == 0
    via_file = json.loads(capsys.readouterr().out)
    assert direct == via_file


# -------------------------------------------------------------- inspect


def test_inspect_csv_rows_sum_to_one(trained, capsys):
    examples = load_jsonl(trained["dev"])
    code = console_main(["inspect", "--checkpoint", str(trained["ckpt"]),
                         "--data", str(trained["dev"]),
                         "--example-id", examples[0].id])
    assert code == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    header, data = rows[0], rows[1:]
    assert header[:3] == ["layer", "head", "query_token"]
    seq_len = len(header) - 3
    # one layer, two heads in the tiny config
    assert len(data) == 1 * 2 * seq_len
    for row in data:
        weights = [float(w) for w in row[3:]]
        assert abs(sum(weights) - 1.0) < 1e-5
    assert any(lbl == "[CLS]" for lbl in (r[2] for r in data))


def test_inspect_unknown_id_is_data_error(trained, capsys):
    code = console_main(["inspect", "--checkpoint", str(trained["ckpt"]),
                         "--data", str(trained["dev"]),
                         "--example-id", "no-such-id"])
    assert code == 2
    capsys.readouterr()


# ------------------------------------------------------- shared schema


_BAD_INFERENCE_FLAGS = [("--top-k", "0"), ("--max-span-len", "0"),
                        ("--batch-size", "0"), ("--batch-size", "-3")]


@pytest.mark.parametrize("command, flag, value",
                         [("eval", *f) for f in _BAD_INFERENCE_FLAGS]
                         + [("eval", "--match-mode", "some")]
                         + [("predict", *f) for f in _BAD_INFERENCE_FLAGS]
                         + [(c, "--variant", "hsebertnets") for c in ("eval", "predict")])
def test_bad_inference_flag_is_usage_error(trained, capsys, command, flag, value):
    code = console_main([command, "--checkpoint", str(trained["ckpt"]),
                         "--data", str(trained["dev"]), flag, value])
    assert code == 1
    capsys.readouterr()


def test_every_config_key_is_accepted(tmp_path):
    """One INI naming every key in its section parses and validates."""
    cfg = tmp_path / "all.ini"
    cfg.write_text(
        "[run]\nvariant = bert\nseed = 1\nepochs = 1\nbatch_size = 4\n"
        "optimizer = swats\nlr = 0.01\neps_switch = 1e-6\ntop_k = 2\n"
        "match_mode = all\nmax_span_len = 5\n"
        "[model]\nd_model = 8\nn_layers = 1\nn_heads = 2\nd_ff = 16\n"
        "dropout = 0.0\nactivation = gelu\ncell = lstm\nhidden = 4\nmax_len = 40\n"
        "[data]\ntrain = t.jsonl\ndev = d.jsonl\ncheckpoint = m.sebn\nlog = l.jsonl\n"
        "[synth]\nn_examples = 3\nmulti_entity_fraction = 0.5\n"
        "min_distractors = 0\nmax_distractors = 1\n",
        encoding="utf-8")
    out = tmp_path / "s.jsonl"
    assert console_main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(load_jsonl(out)) == 3


def test_duplicate_ids_are_data_error(trained, capsys):
    dup = trained["tmp"] / "dup.jsonl"
    first = trained["dev"].read_text(encoding="utf-8").splitlines()[0]
    dup.write_text(first + "\n" + first + "\n", encoding="utf-8")
    for command in ("eval", "predict"):
        assert console_main([command, "--checkpoint", str(trained["ckpt"]),
                             "--data", str(dup)]) == 2
    capsys.readouterr()


def test_bad_checkpoint_metadata_is_data_error(trained, capsys, tmp_path):
    blob = trained["ckpt"].read_bytes()
    meta_len = struct.unpack("<I", blob[8:12])[0]
    meta = json.loads(blob[12:12 + meta_len])
    del meta["training"]["optimizer"]["kind"]
    new_meta = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    bad = tmp_path / "bad.sebn"
    bad.write_bytes(blob[:8] + struct.pack("<I", len(new_meta))
                    + new_meta + blob[12 + meta_len:])
    assert console_main(["eval", "--checkpoint", str(bad),
                         "--data", str(trained["dev"])]) == 2
    assert "at byte 12" in capsys.readouterr().err


def test_train_same_seed_identical_checkpoints(tmp_path):
    train = tmp_path / "train.jsonl"
    make_corpus(train, n=12, seed=0)
    blobs = []
    for name in ("one", "two"):
        cfg = tmp_path / f"{name}.ini"
        write_config(cfg, train, "", tmp_path / f"{name}.sebn",
                     tmp_path / f"{name}.log.jsonl", extra_run="optimizer = swats")
        assert console_main(["train", "--config", str(cfg),
                             "--dropout", "0.1"]) == 0
        blobs.append((tmp_path / f"{name}.sebn").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("reuse_id, entities, message", [
    (False, ["x"], "entities"),
    (False, 5, "entities"),
    (False, [{"score": 1.0}], "entities"),
    (False, None, "entities"),
    (True, [{"text": "y"}], "duplicate id"),
], ids=["entity-string", "entities-int", "entity-without-text", "entities-null",
        "repeated-id"])
def test_bad_prediction_file_is_data_error(trained, capsys, reuse_id, entities,
                                           message):
    """A malformed record or a repeated id on line 2 of the file that
    ``eval --predictions`` reads exits 2 and names the line."""
    ids = [ex.id for ex in load_jsonl(trained["dev"])]
    records = [{"id": ids[0], "entities": [{"text": "x"}]},
               {"id": ids[0] if reuse_id else ids[1], "entities": entities}]
    preds = trained["tmp"] / "preds.jsonl"
    preds.write_text("".join(json.dumps(r) + "\n" for r in records),
                     encoding="utf-8")
    assert console_main(["eval", "--predictions", str(preds),
                         "--data", str(trained["dev"])]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and message in err


@pytest.mark.parametrize("name, value", [
    ("head.w_start", float("nan")),
    ("optim.v.head.w_end", float("inf")),
])
def test_nonfinite_checkpoint_payload_exits_2(trained, capsys, tmp_path, name, value):
    blob = bytearray(trained["ckpt"].read_bytes())
    meta_len = struct.unpack("<I", blob[8:12])[0]
    entry = next(e for e in json.loads(blob[12:12 + meta_len])["params"]
                 if e["name"] == name)
    offset = 12 + meta_len + entry["offset"]
    blob[offset:offset + 4] = struct.pack("<f", value)
    bad = tmp_path / "bad.sebn"
    bad.write_bytes(bytes(blob))
    out = tmp_path / "preds.jsonl"
    assert console_main(["predict", "--checkpoint", str(bad),
                         "--data", str(trained["dev"]), "--out", str(out)]) == 2
    assert f"at byte {offset}" in capsys.readouterr().err


def test_nonfinite_logits_exit_2(trained, capsys, monkeypatch):
    """A forward pass that yields a non-finite score ends in a DecodeError
    naming the row (exit 2), not a traceback."""
    import sebertnets.model as model_module

    real_score = model_module.score

    def poisoned(h, params, valid, **kwargs):
        logits = real_score(h, params, valid, **kwargs)
        logits.start_logits.data[1, valid[1].argmax()] = np.nan
        return logits

    monkeypatch.setattr(model_module, "score", poisoned)
    assert console_main(["predict", "--checkpoint", str(trained["ckpt"]),
                         "--data", str(trained["dev"])]) == 2
    assert "row 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "predict", "eval"])
def test_non_utf8_data_is_data_error(trained, capsys, command):
    """A byte that is not UTF-8 on line 2 of the JSONL a command reads
    (training data, inference data, a prediction file) exits 2 and names
    the line."""
    bad = trained["tmp"] / "bad.jsonl"
    first = trained["dev"].read_bytes().splitlines(keepends=True)[0]
    bad.write_bytes(first + b'{"id": "\xff"}\n')
    argv = {"train": ["train", "--config", str(trained["cfg"]), "--train", str(bad)],
            "predict": ["predict", "--checkpoint", str(trained["ckpt"]),
                        "--data", str(bad)],
            "eval": ["eval", "--predictions", str(bad),
                     "--data", str(trained["dev"])]}[command]
    assert console_main(argv) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--train", "--checkpoint", "--predictions", "--out"])
def test_directory_for_a_file_is_usage_error(trained, capsys, flag):
    adir = trained["tmp"] / "adir"
    adir.mkdir()
    argv = {"--train": ["train", "--config", str(trained["cfg"]), "--train", str(adir)],
            "--checkpoint": ["predict", "--checkpoint", str(adir),
                             "--data", str(trained["dev"])],
            "--predictions": ["eval", "--predictions", str(adir),
                              "--data", str(trained["dev"])],
            "--out": ["predict", "--checkpoint", str(trained["ckpt"]),
                      "--data", str(trained["dev"]), "--out", str(adir)]}[flag]
    assert console_main(argv) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unusable_checkpoint_target_fails_before_training(trained, capsys, target):
    """A checkpoint path that cannot be written exits 1 before the log is
    opened or any epoch runs."""
    adir = trained["tmp"] / "adir"
    adir.mkdir()
    ckpt = {"directory": adir, "missing-parent": adir / "absent" / "m.sebn"}[target]
    log = trained["tmp"] / "fresh_log.jsonl"
    assert console_main(["train", "--config", str(trained["cfg"]),
                         "--checkpoint", str(ckpt), "--log", str(log)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not log.exists()
