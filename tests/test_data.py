"""Data pipeline: cleaning, vocabulary, tokenization layout, JSONL IO,
and the synthetic generator's cue structure."""

import json

import numpy as np
import pytest

from sebertnets import data as D
from sebertnets.errors import ContractError, DataError, EmptyTextError, GoldNotFoundError


class TestCleanText:
    def test_removes_format_and_control_chars(self):
        assert D.clean_text("a​b‍c") == "abc"      # zero-width
        assert D.clean_text("a\x00b\x07c") == "abc"          # control, non-whitespace
        assert D.clean_text("a﻿b") == "ab"              # BOM is Cf

    def test_collapses_whitespace_runs(self):
        assert D.clean_text("  a \t\n  b\r\nc  ") == "a b c"
        assert D.clean_text("a　　b") == "a b"       # ideographic space

    def test_preserves_cjk_punctuation(self):
        s = "公司，发布。《公告》！"
        assert D.clean_text(s) == s

    def test_empty_after_cleaning_raises(self):
        for bad in ("", "   ", "​​", "\t\n"):
            with pytest.raises(EmptyTextError):
                D.clean_text(bad)


class TestVocabulary:
    def test_reserved_ids(self):
        v = D.Vocabulary(list("ab"))
        assert (D.PAD_ID, D.UNK_ID, D.CLS_ID, D.SEP_ID) == (0, 1, 2, 3)
        assert v.size == 6
        assert v.id_for("a") == 4 and v.id_for("b") == 5
        assert v.id_for("z") == D.UNK_ID
        assert v.char_for(4) == "a"
        assert v.char_for(0) is None
        assert v.token_label(0) == "[PAD]" and v.token_label(3) == "[SEP]"

    def test_from_corpus_deterministic_sorted(self):
        exs = [D.RawExample("1", "ba", "dc"), D.RawExample("2", "ab", "cd")]
        v1 = D.Vocabulary.from_corpus(exs)
        v2 = D.Vocabulary.from_corpus(list(reversed(exs)))
        assert v1 == v2
        assert [v1.char_for(i) for i in range(4, v1.size)] == ["a", "b", "c", "d"]

    def test_json_roundtrip(self):
        v = D.Vocabulary(sorted("押减购诉安邦"))
        assert D.Vocabulary.from_json(v.to_json()) == v

    def test_char_for_out_of_range(self):
        with pytest.raises(IndexError):
            D.Vocabulary(list("ab")).char_for(99)

    def test_repeated_char_raises(self):
        with pytest.raises(ContractError, match="repeats the char 'a'"):
            D.Vocabulary(list("aba"))


class TestEncodeExample:
    def setup_method(self):
        self.vocab = D.Vocabulary(sorted("ABCDETXY"))

    def test_layout(self):
        ex = D.RawExample("e1", "ABC", "T", entity="BC")
        t = D.encode_example(ex, self.vocab, max_len=16)
        ids = [self.vocab.id_for(c) for c in "ABC"]
        expect = [D.CLS_ID] + ids + [D.SEP_ID, self.vocab.id_for("T"), D.SEP_ID]
        assert t.token_ids.tolist() == expect
        assert t.segment_ids.tolist() == [0, 0, 0, 0, 0, 1, 1]
        assert t.attention_mask.all()
        assert t.text_span == (1, 3)
        assert t.gold == (2, 3)
        assert t.text == "ABC"

    def test_truncation_keeps_event_type_whole(self):
        ex = D.RawExample("e2", "ABCDE", "T", entity="D")
        t = D.encode_example(ex, self.vocab, max_len=8)
        # budget = 8 - 3 - 1 = 4 text chars
        assert t.text == "ABCD"
        assert len(t.token_ids) == 8
        assert t.token_ids[-1] == D.SEP_ID
        assert t.token_ids[-2] == self.vocab.id_for("T")
        assert t.gold == (4, 4)

    def test_truncation_budget_property(self):
        # for every max_len, output fits, type is whole, text prefix maximal
        text, etype = "ABCDEXY", "TE"
        for max_len in range(6, 16):
            ex = D.RawExample("e", text, etype)
            t = D.encode_example(ex, self.vocab, max_len=max_len)
            n = len(t.token_ids)
            assert n <= max_len
            keep = min(len(text), max_len - 3 - len(etype))
            assert t.text == text[:keep]
            assert n == keep + 3 + len(etype)
            labels = [self.vocab.token_label(i) for i in t.token_ids]
            assert labels == ["[CLS]", *text[:keep], "[SEP]", *etype, "[SEP]"]

    def test_gold_lost_to_truncation_raises(self):
        ex = D.RawExample("e3", "ABCDE", "T", entity="E")
        with pytest.raises(GoldNotFoundError):
            D.encode_example(ex, self.vocab, max_len=8)

    def test_gold_absent_raises(self):
        ex = D.RawExample("e4", "ABC", "T", entity="XY")
        with pytest.raises(GoldNotFoundError) as e:
            D.encode_example(ex, self.vocab, max_len=16)
        assert "e4" in str(e.value)

    def test_gold_first_occurrence(self):
        ex = D.RawExample("e5", "XYXY", "T", entity="XY")
        t = D.encode_example(ex, self.vocab, max_len=16)
        assert t.gold == (1, 2)

    def test_max_len_too_small(self):
        ex = D.RawExample("e6", "ABC", "TE")
        with pytest.raises(ContractError):
            D.encode_example(ex, self.vocab, max_len=5)
        D.encode_example(ex, self.vocab, max_len=6)  # one text char fits

    def test_no_gold_encodes_with_none(self):
        ex = D.RawExample("e7", "ABC", "T")
        t = D.encode_example(ex, self.vocab, max_len=16)
        assert t.gold is None

    def test_unknown_chars_map_to_unk(self):
        ex = D.RawExample("e8", "AZ", "T")
        t = D.encode_example(ex, self.vocab, max_len=16)
        assert t.token_ids[2] == D.UNK_ID

    def test_gold_override_for_flattened_records(self):
        ex = D.RawExample("e9", "XYAB", "T", entities=("XY", "AB"))
        t0 = D.encode_example(ex, self.vocab, max_len=16)
        t1 = D.encode_example(ex, self.vocab, max_len=16, gold_entity="AB")
        assert t0.gold == (1, 2)
        assert t1.gold == (3, 4)


class TestBatch:
    def test_pads_to_longest(self):
        vocab = D.Vocabulary(sorted("ABCT"))
        short = D.encode_example(D.RawExample("a", "A", "T"), vocab, 16)
        long = D.encode_example(D.RawExample("b", "ABC", "T", entity="BC"), vocab, 16)
        b = D.batch([short, long])
        assert b.token_ids.shape == (2, 7)
        # short row is [CLS A SEP T SEP] = 5 tokens, then padding
        assert b.token_ids[0, 5:].tolist() == [D.PAD_ID] * 2
        assert not b.attention_mask[0, 5:].any()
        assert b.attention_mask[1].all()
        assert b.golds[0].tolist() == [-1, -1]
        assert b.golds[1].tolist() == [2, 3]
        assert len(b) == 2

    def test_pads_to_given_length(self):
        vocab = D.Vocabulary(sorted("ABCT"))
        rows = [D.encode_example(D.RawExample(i, t, "T"), vocab, 16)
                for i, t in (("a", "A"), ("b", "ABC"))]
        b = D.batch(rows, 9)
        assert b.token_ids.shape == (2, 9)
        assert b.token_ids[1, 7:].tolist() == [D.PAD_ID] * 2
        assert b.attention_mask.sum(axis=1).tolist() == [5, 7]
        assert D.batch(rows, 7).token_ids.tolist() == D.batch(rows).token_ids.tolist()
        with pytest.raises(ContractError, match="7-token example to length 6"):
            D.batch(rows, 6)

    def test_empty_batch_raises(self):
        with pytest.raises(ContractError):
            D.batch([])


class TestFlatten:
    def test_one_record_per_gold(self):
        exs = [
            D.RawExample("a", "XY AB", "T", entities=("XY", "AB")),
            D.RawExample("b", "XY", "T", entity="XY"),
            D.RawExample("c", "XY", "T"),
        ]
        flat = D.flatten_for_training(exs)
        assert [e.id for e in flat] == ["a#0", "a#1", "b"]
        assert [e.entity for e in flat] == ["XY", "AB", "XY"]


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "d.jsonl"
        exs = [
            D.RawExample("1", "质押公告", "质押", entity="公告"),
            D.RawExample("2", "多实体", "减持", entities=("多", "实体")),
            D.RawExample("3", "无实体", "收购"),
        ]
        D.write_jsonl(exs, path)
        back = D.load_jsonl(path)
        assert back == exs

    def test_entities_takes_precedence(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"id": "1", "text": "ab", "event_type": "t",
                                    "entity": "a", "entities": ["b"]},
                                   ensure_ascii=False) + "\n", encoding="utf-8")
        ex = D.load_jsonl(path)[0]
        assert ex.gold_entities == ("b",)

    def test_text_is_cleaned_on_load(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"id": "1", "text": "a​  b", "event_type": " t "})
                        + "\n", encoding="utf-8")
        ex = D.load_jsonl(path)[0]
        assert ex.text == "a b" and ex.event_type == "t"

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "1", "text": "a", "event_type": "t"}\n{broken\n',
                        encoding="utf-8")
        with pytest.raises(DataError) as e:
            D.load_jsonl(path)
        assert e.value.line == 2

    def test_non_utf8_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"id": "1", "text": "a", "event_type": "t"}\r\n'
                         b'{"id": "2", "text": "\xff", "event_type": "t"}\n')
        with pytest.raises(DataError, match="UTF-8") as e:
            D.load_jsonl(path)
        assert e.value.line == 2

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "1", "text": "a"}\n', encoding="utf-8")
        with pytest.raises(DataError) as e:
            D.load_jsonl(path)
        assert "event_type" in str(e.value) and e.value.line == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('\n{"id": "1", "text": "a", "event_type": "t"}\n\n',
                        encoding="utf-8")
        assert len(D.load_jsonl(path)) == 1

    def test_duplicate_id_reports_second_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rec = '{"id": "1", "text": "a", "event_type": "t"}\n'
        path.write_text(rec + '{"id": "2", "text": "b", "event_type": "t"}\n' + rec,
                        encoding="utf-8")
        with pytest.raises(DataError, match="duplicate id") as e:
            D.load_jsonl(path)
        assert e.value.line == 3

    def test_empty_text_is_data_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "1", "text": "\\u200b", "event_type": "t"}\n',
                        encoding="utf-8")
        with pytest.raises(DataError):
            D.load_jsonl(path)


class TestSynthetic:
    def test_deterministic(self):
        cfg = D.SynthConfig(n_examples=50, multi_entity_fraction=0.3)
        a = D.generate_synthetic(cfg, seed=7)
        b = D.generate_synthetic(cfg, seed=7)
        assert a == b
        c = D.generate_synthetic(cfg, seed=8)
        assert a != c

    def test_gold_follows_matching_cue(self):
        cfg = D.SynthConfig(n_examples=200, multi_entity_fraction=0.5)
        for ex in D.generate_synthetic(cfg, seed=1):
            cue = D.EVENT_CUES[ex.event_type]
            for gold in ex.gold_entities:
                assert cue + gold in ex.text
                assert ex.text.count(gold) == 1  # unambiguous localization
            # distractor cues exist: at least one non-matching cue char
            other_cues = [c for t, c in D.EVENT_CUES.items() if t != ex.event_type]
            assert any(c in ex.text for c in other_cues)

    def test_multi_entity_fraction(self):
        cfg = D.SynthConfig(n_examples=400, multi_entity_fraction=0.5)
        exs = D.generate_synthetic(cfg, seed=3)
        multi = sum(1 for e in exs if len(e.gold_entities) > 1)
        assert 120 <= multi <= 280
        assert all(2 <= len(e.gold_entities) <= 3 for e in exs
                   if len(e.gold_entities) > 1)

    def test_single_mode_has_single_golds(self):
        for ex in D.generate_synthetic(D.SynthConfig(n_examples=50), seed=2):
            assert len(ex.gold_entities) == 1

    def test_encodable_end_to_end(self):
        exs = D.generate_synthetic(D.SynthConfig(n_examples=100,
                                                 multi_entity_fraction=0.4), seed=5)
        vocab = D.Vocabulary.from_corpus(exs)
        for ex in D.flatten_for_training(exs):
            t = D.encode_example(ex, vocab, max_len=64)
            assert t.gold is not None
            s, e = t.gold
            assert t.text[s - 1:e] == ex.entity

    def test_invalid_config(self):
        with pytest.raises(ContractError):
            D.SynthConfig(n_examples=0)
        with pytest.raises(ContractError):
            D.SynthConfig(multi_entity_fraction=1.5)

    def test_distractor_bound(self):
        """Up to ``MAX_DISTRACTORS`` distractors beside three golds finish at
        once; one more is rejected rather than left to search for names."""
        cfg = D.SynthConfig(n_examples=20, multi_entity_fraction=1.0,
                            min_distractors=D.MAX_DISTRACTORS,
                            max_distractors=D.MAX_DISTRACTORS)
        for ex in D.generate_synthetic(cfg, seed=0):
            assert len(ex.gold_entities) + D.MAX_DISTRACTORS == sum(
                ex.text.count(c) for c in D.EVENT_CUES.values())
        with pytest.raises(ContractError, match="96"):
            D.SynthConfig(max_distractors=D.MAX_DISTRACTORS + 1)
