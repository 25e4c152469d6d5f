import json

import numpy as np
import pytest

from lexcite.corpus import (
    CorpusError,
    HierarchyError,
    PAD_INDEX,
    UNK_INDEX,
    build_vocab,
    encode_corpus,
    load_facts,
    load_facts_with_report,
    load_hierarchy,
    tokenize,
)

from conftest import make_fact, write_facts_file, write_hierarchy_file
from oracles import average_labels_per_doc, decode_text, encode_capped_then_trimmed


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

    @pytest.mark.parametrize("level", ["chapter", "topic", "section"])
    def test_node_without_id_names_the_file(self, tmp_path, level):
        path = write_hierarchy_file(tmp_path / "h.json", {"T1": ["S1"]})
        doc = json.loads(path.read_text())
        chapter = doc["chapters"][0]
        node = {"chapter": chapter, "topic": chapter["topics"][0],
                "section": chapter["topics"][0]["sections"][0]}[level]
        del node["id"]
        path.write_text(json.dumps(doc))
        with pytest.raises(HierarchyError, match=f"h.json: a {level} under .* has no 'id'"):
            load_hierarchy(path)

    @pytest.mark.parametrize("key", ["chapters", "topics", "sections"])
    def test_children_that_are_not_a_list_name_the_file(self, tmp_path, key):
        path = write_hierarchy_file(tmp_path / "h.json", {"T1": ["S1"]})
        doc = json.loads(path.read_text())
        owner = {"chapters": doc, "topics": doc["chapters"][0],
                 "sections": doc["chapters"][0]["topics"][0]}[key]
        owner[key] = "x"
        path.write_text(json.dumps(doc))
        with pytest.raises(HierarchyError, match=f"h.json: '{key}' of .* must be a list"):
            load_hierarchy(path)


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
        for second in ('{bad json', '{"id": "d2", "text": 5, "labels": ["302"]}'):
            path.write_text('{"id": "d1", "text": "ok.", "labels": ["302"]}\n' + second + "\n")
            with pytest.raises(CorpusError, match=r"f\.jsonl:2: "):
                load_facts(path, h)

    def test_missing_field_names_line(self, tmp_path):
        h = self.hierarchy(tmp_path)
        path = write_facts_file(tmp_path / "f.jsonl", [{"id": "d1", "text": "ok."}])
        with pytest.raises(CorpusError, match=":1"):
            load_facts(path, h)

    def test_string_labels_refused_not_split_into_characters(self, tmp_path):
        # "34" must not become sections 3 and 4
        h = load_hierarchy(write_hierarchy_file(tmp_path / "h.json", {"T1": ["3", "4", "34"]}))
        path = write_facts_file(tmp_path / "f.jsonl", [
            {"id": "d1", "text": "ok.", "labels": ["34"]},
            {"id": "d2", "text": "ok.", "labels": "34"},
        ])
        with pytest.raises(CorpusError, match=r"f\.jsonl:2: 'labels' must be a list"):
            load_facts(path, h)

    def test_record_that_is_not_an_object_names_line(self, tmp_path):
        h = self.hierarchy(tmp_path)
        path = tmp_path / "f.jsonl"
        path.write_text('{"id": "d1", "text": "ok.", "labels": ["302"]}\n5\n')
        with pytest.raises(CorpusError, match=r"f\.jsonl:2: record is not a JSON object"):
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
    """One document through `encode_corpus`."""

    def setup_method(self):
        self.vocab = build_vocab([["w1", "w2", "w3"]], min_freq=1)

    def encode(self, doc, max_sents, max_words):
        grids, masks = encode_corpus([doc], self.vocab, max_sents, max_words)
        return grids[0], masks[0]

    def test_padding_arithmetic(self):
        # the grid is the document's extent, not the caps
        doc = make_fact("d", {"S1"}, sentences=[["w1", "w2"], ["w1", "w2", "w3"]])
        grid, mask = self.encode(doc, max_sents=4, max_words=5)
        assert grid.shape == (2, 3)
        assert mask.sum() == 5
        assert grid[0, 2] == PAD_INDEX and not mask[0, 2]

    def test_truncation_keeps_first(self):
        doc = make_fact("d", {"S1"}, sentences=[[f"w{i}"] for i in range(1, 7)])
        grid, mask = self.encode(doc, max_sents=4, max_words=2)
        assert grid.shape == (4, 1)
        assert mask[:4, 0].all() and mask.sum() == 4
        assert grid[0, 0] == self.vocab.encode("w1")

    def test_out_of_vocab_maps_to_unknown(self):
        doc = make_fact("d", {"S1"}, sentences=[["w1", "zzz", "zzz"]])
        grid, _ = self.encode(doc, max_sents=2, max_words=4)
        assert grid[0, 1] == UNK_INDEX and grid[0, 2] == UNK_INDEX

    def test_roundtrip_through_mask(self):
        doc = make_fact("d", {"S1"}, sentences=[["w1", "w2"], ["w3", "w1", "w2", "w3"]])
        grid, mask = self.encode(doc, max_sents=3, max_words=3)
        decoded = decode_text(grid, mask, self.vocab)
        assert decoded == [["w1", "w2"], ["w3", "w1", "w2"]]  # truncated at 3 words

    def test_invalid_limits(self):
        doc = make_fact("d", {"S1"})
        with pytest.raises(ValueError):
            encode_corpus([doc], self.vocab, max_sents=0, max_words=3)
        with pytest.raises(ValueError):
            encode_corpus([doc], self.vocab, max_sents=3, max_words=0)


class TestEncodeCorpus:
    def setup_method(self):
        self.vocab = build_vocab([["w1", "w2", "w3"]], min_freq=1)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("caps", [(3, 4), (12, 12), (1, 1)])
    def test_matches_the_cap_then_trim_reference(self, seed, caps):
        # random documents, with empty sentences anywhere (trailing ones
        # included) and unknown words; (12, 12) never binds
        rng = np.random.default_rng(seed)
        words = ["w1", "w2", "w3", "zzz"]
        docs = [make_fact(f"d{i}", {"S1"}, sentences=[
                    [words[k] for k in rng.integers(0, 4, size=rng.integers(0, 9))]
                    for _ in range(rng.integers(0, 9))])
                for i in range(int(rng.integers(0, 6)))]
        grids, masks = encode_corpus(docs, self.vocab, *caps)
        want_grids, want_masks = encode_capped_then_trimmed(docs, self.vocab, *caps)
        assert grids.dtype == want_grids.dtype and masks.dtype == want_masks.dtype
        np.testing.assert_array_equal(grids, want_grids)
        np.testing.assert_array_equal(masks, want_masks)

    def test_extent_is_the_longest_kept_document_and_sentence(self):
        docs = [make_fact("a", {"S1"}, sentences=[["w1"] * 7]),
                make_fact("b", {"S1"}, sentences=[["w2"], ["w3"], ["w1", "w2"]])]
        grids, masks = encode_corpus(docs, self.vocab, max_sents=2, max_words=5)
        assert grids.shape == masks.shape == (2, 2, 5)
        assert masks.sum(axis=(1, 2)).tolist() == [5, 2]
        grids, _ = encode_corpus(docs, self.vocab, max_sents=8, max_words=8)
        assert grids.shape == (2, 3, 7)

    def test_documents_without_tokens_keep_one_cell(self):
        grids, masks = encode_corpus([make_fact("e", {"S1"}, sentences=[[], []])],
                                     self.vocab, 4, 4)
        assert grids.shape == (1, 1, 1) and not masks.any()
        assert encode_corpus([], self.vocab, 4, 4)[0].shape == (0, 1, 1)
