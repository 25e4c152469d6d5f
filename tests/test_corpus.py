import json

import numpy as np
import pytest

from lexcite.corpus import (
    CorpusError,
    HierarchyError,
    PAD_INDEX,
    UNK_INDEX,
    build_vocab,
    encode_text,
    load_facts,
    load_facts_with_report,
    load_hierarchy,
    tokenize,
)

from conftest import make_fact, write_facts_file, write_hierarchy_file
from oracles import average_labels_per_doc, decode_text


def test_tokenize_keeps_entity_masks_whole():
    toks = tokenize("On [DATE 1], [PERSON 2] attacked the complainant.")
    assert "[date 1]" in toks
    assert "[person 2]" in toks
    assert "attacked" in toks


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("The Court held:") == ["the", "court", "held", ":"]


class TestLoadHierarchy:
    def test_table_style_chain(self, tmp_path):
        # Chapter "Offences affecting Human Body" -> Topic "Hurt" -> Section 321
        path = write_hierarchy_file(
            tmp_path / "h.json",
            {"Hurt": ["321"]},
            chapters={"Offences affecting Human Body": ["Hurt"]},
        )
        h = load_hierarchy(path)
        assert h.section_ids == ["321"]
        assert h.parent["321"] == "Hurt"
        assert h.parent["Hurt"] == "Offences affecting Human Body"
        assert h.parent["Offences affecting Human Body"] == "ACT"

    def test_minimal_four_node_chain(self, tmp_path):
        path = write_hierarchy_file(tmp_path / "h.json", {"T1": ["S1"]})
        h = load_hierarchy(path)
        assert h.chapters == ["CH1"] and h.topics == ["T1"] and h.section_ids == ["S1"]

    def test_section_under_two_topics_rejected(self, tmp_path):
        path = write_hierarchy_file(tmp_path / "h.json", {"T1": ["S1"], "T2": ["S1"]})
        with pytest.raises(HierarchyError, match="S1"):
            load_hierarchy(path)

    def test_section_order_is_file_order(self, tmp_path):
        path = write_hierarchy_file(tmp_path / "h.json", {"T1": ["S9", "S2"], "T2": ["S5"]})
        assert load_hierarchy(path).section_ids == ["S9", "S2", "S5"]

    def test_expected_section_count(self, tmp_path):
        path = write_hierarchy_file(tmp_path / "h.json", {"T1": ["S1", "S2"]})
        load_hierarchy(path, expected_sections=2)
        with pytest.raises(HierarchyError):
            load_hierarchy(path, expected_sections=100)


class TestLoadFacts:
    def hierarchy(self, tmp_path):
        return load_hierarchy(write_hierarchy_file(tmp_path / "h.json", {"T1": ["302", "201"]}))

    def test_duplicate_labels_become_a_set(self, tmp_path):
        h = self.hierarchy(tmp_path)
        path = write_facts_file(tmp_path / "f.jsonl", [
            {"id": "d1", "text": "some crime happened.", "labels": ["302", "302"]},
        ])
        docs = load_facts(path, h)
        assert docs[0].labels == {"302"}

    def test_unknown_label_dropped_and_doc_excluded(self, tmp_path):
        h = self.hierarchy(tmp_path)
        path = write_facts_file(tmp_path / "f.jsonl", [
            {"id": "d1", "text": "a crime.", "labels": ["999"]},
            {"id": "d2", "text": "another crime.", "labels": ["302", "999"]},
        ])
        docs, report = load_facts_with_report(path, h)
        assert [d.id for d in docs] == ["d2"]
        assert report.n_excluded == 1
        assert report.excluded_ids == ["d1"]
        assert report.n_dropped_labels == 2

    def test_malformed_record_names_line(self, tmp_path):
        h = self.hierarchy(tmp_path)
        path = tmp_path / "f.jsonl"
        path.write_text('{"id": "d1", "text": "ok.", "labels": ["302"]}\n{bad json\n')
        with pytest.raises(CorpusError, match=":2"):
            load_facts(path, h)

    def test_missing_field_names_line(self, tmp_path):
        h = self.hierarchy(tmp_path)
        path = write_facts_file(tmp_path / "f.jsonl", [{"id": "d1", "text": "ok."}])
        with pytest.raises(CorpusError, match=":1"):
            load_facts(path, h)

    def test_empty_file_rejected(self, tmp_path):
        h = self.hierarchy(tmp_path)
        path = tmp_path / "f.jsonl"
        path.write_text("")
        with pytest.raises(CorpusError, match="empty"):
            load_facts(path, h)

    def test_duplicate_id_rejected(self, tmp_path):
        h = self.hierarchy(tmp_path)
        path = write_facts_file(tmp_path / "f.jsonl", [
            {"id": "d1", "text": "x.", "labels": ["302"]},
            {"id": "d1", "text": "y.", "labels": ["201"]},
        ])
        with pytest.raises(CorpusError, match="duplicate"):
            load_facts(path, h)

    def test_presplit_sentences_accepted(self, tmp_path):
        h = self.hierarchy(tmp_path)
        path = write_facts_file(tmp_path / "f.jsonl", [
            {"id": "d1", "text": ["First sentence.", "Second one."], "labels": ["302"]},
        ])
        docs = load_facts(path, h)
        assert len(docs[0].sentences) == 2

    def test_idempotent_and_order_preserving(self, tmp_path):
        h = self.hierarchy(tmp_path)
        recs = [{"id": f"d{i}", "text": f"crime number {i}.", "labels": ["302"]} for i in range(5)]
        path = write_facts_file(tmp_path / "f.jsonl", recs)
        first = load_facts(path, h)
        second = load_facts(path, h)
        assert [d.id for d in first] == [f"d{i}" for i in range(5)]
        assert first == second

    def test_average_labels_per_doc(self, tmp_path):
        h = self.hierarchy(tmp_path)
        docs = [make_fact("a", {"302"}), make_fact("b", {"302", "201"})]
        assert average_labels_per_doc(docs) == pytest.approx(1.5, abs=1e-12)


class TestVocabulary:
    def test_threshold(self):
        vocab = build_vocab([["a"] * 5 + ["b"]], min_freq=2)
        assert "a" in vocab.index and "b" not in vocab.index
        assert len(vocab) == 3  # pad, unk, a

    def test_min_freq_one_keeps_singletons(self):
        assert len(build_vocab([["a"]], min_freq=1)) == 3

    def test_size_matches_independent_frequency_pass(self, rng):
        # 10k-token synthetic stream vs a brute-force counter
        tokens = [f"w{rng.integers(400)}" for _ in range(10_000)]
        min_freq = 3
        counts = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        expected = sum(1 for c in counts.values() if c >= min_freq) + 2
        assert len(build_vocab([tokens], min_freq=min_freq)) == expected

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            build_vocab([[]], min_freq=1)

    def test_pretrained_vector_loading(self, tmp_path):
        vocab = build_vocab([["alpha", "beta"]], min_freq=1)
        (tmp_path / "vec.txt").write_text("alpha 1.0 2.0\nmissing 9.0 9.0\n")
        matrix, found = vocab.load_vectors(tmp_path / "vec.txt", dim=2)
        assert found[vocab.encode("alpha")]
        assert not found[vocab.encode("beta")]
        np.testing.assert_allclose(matrix[vocab.encode("alpha")], [1.0, 2.0])

    def test_vectors_of_another_width_refused(self, tmp_path):
        # a file with no line of the configured width would leave every
        # embedding at its random initialization
        vocab = build_vocab([["alpha", "beta"]], min_freq=1)
        (tmp_path / "vec.txt").write_text("alpha 1.0 2.0 3.0\n\nbeta 4.0 5.0 6.0\nx 1\n")
        with pytest.raises(CorpusError, match=r"width 2 .*widths seen: \[1, 3\]"):
            vocab.load_vectors(tmp_path / "vec.txt", dim=2)


class TestEncodeText:
    def setup_method(self):
        self.vocab = build_vocab([["w1", "w2", "w3"]], min_freq=1)

    def test_padding_arithmetic(self):
        doc = make_fact("d", {"S1"}, sentences=[["w1", "w2", "w3"], ["w1", "w2", "w3"]])
        grid, mask = encode_text(doc, self.vocab, max_sents=4, max_words=5)
        assert grid.shape == (4, 5)
        assert mask.sum() == 6
        assert (grid[2:] == PAD_INDEX).all()

    def test_truncation_keeps_first(self):
        doc = make_fact("d", {"S1"}, sentences=[[f"w{i}"] for i in range(1, 7)])
        grid, mask = encode_text(doc, self.vocab, max_sents=4, max_words=2)
        assert mask[:4, 0].all() and mask.sum() == 4
        assert grid[0, 0] == self.vocab.encode("w1")

    def test_out_of_vocab_maps_to_unknown(self):
        doc = make_fact("d", {"S1"}, sentences=[["w1", "zzz", "zzz"]])
        grid, _ = encode_text(doc, self.vocab, max_sents=2, max_words=4)
        assert grid[0, 1] == UNK_INDEX and grid[0, 2] == UNK_INDEX

    def test_roundtrip_through_mask(self):
        doc = make_fact("d", {"S1"}, sentences=[["w1", "w2"], ["w3", "w1", "w2", "w3"]])
        grid, mask = encode_text(doc, self.vocab, max_sents=3, max_words=3)
        decoded = decode_text(grid, mask, self.vocab)
        assert decoded == [["w1", "w2"], ["w3", "w1", "w2"]]  # truncated at 3 words

    def test_invalid_limits(self):
        doc = make_fact("d", {"S1"})
        with pytest.raises(ValueError):
            encode_text(doc, self.vocab, max_sents=0, max_words=3)
