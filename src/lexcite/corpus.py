"""Fact and statute corpora: loading, validation, tokenization, encoding.

File formats
------------
Facts:      JSONL, one record per line with fields ``id``, ``text`` (string or
            list of sentence strings), ``labels`` (list of section ids) and an
            optional ``court``.
Hierarchy:  a single JSON document: the act object carries ``id``, ``title``
            and ``chapters``; each chapter carries ``topics``; each topic
            carries ``sections``; each section has ``id``, ``title``, ``text``.
Vectors:    one whitespace-separated ``token v1 .. v_d`` line per word.

:func:`encode_corpus` is the one function that builds the index grids the
text encoder reads, and it builds each at the extent of its documents, not at
the caps.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

COURTS = ("SC", "ALL", "BOM", "MAD", "CAL", "DEL", "MP")

PAD_INDEX = 0
UNK_INDEX = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_PLACEHOLDER = re.compile(r"\[[^\[\]]+\]")
_WORD = re.compile(r"\w+|[^\w\s]")
_SENT_BOUNDARY = re.compile(r"(?<=[.!?])\s+")


class CorpusError(ValueError):
    pass


class HierarchyError(CorpusError):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercase word/punctuation tokens; bracketed entity masks like
    ``[PERSON 1]`` survive as single tokens."""
    tokens: list[str] = []
    pos = 0
    for m in _PLACEHOLDER.finditer(text):
        tokens.extend(t.lower() for t in _WORD.findall(text[pos : m.start()]))
        tokens.append(m.group(0).lower())
        pos = m.end()
    tokens.extend(t.lower() for t in _WORD.findall(text[pos:]))
    return tokens


def split_sentences(text: str) -> list[str]:
    return [s for s in _SENT_BOUNDARY.split(text) if s.strip()]


def _tokenize_text_field(text) -> list[list[str]]:
    if isinstance(text, str):
        raw_sentences = split_sentences(text)
    elif isinstance(text, list) and all(isinstance(s, str) for s in text):
        raw_sentences = text
    else:
        raise CorpusError("text must be a string or a list of sentence strings")
    sentences = [tokenize(s) for s in raw_sentences]
    return [s for s in sentences if s]


@dataclass
class FactDocument:
    id: str
    court: str
    sentences: list[list[str]]
    labels: set[str]

    def tokens(self):
        for sentence in self.sentences:
            yield from sentence


@dataclass
class Statute:
    id: str
    title: str
    sentences: list[list[str]]
    parent_topic: str

    def tokens(self):
        for sentence in self.sentences:
            yield from sentence


class StatuteHierarchy:
    """Act -> Chapter -> Topic -> Section tree with section texts.

    Section order is the order of appearance in the file; downstream code
    (the scorer's sequence model, label vectors) relies on it.
    """

    def __init__(self, act_id: str, chapters: list[str], topics: list[str],
                 sections: list[Statute], parent: dict[str, str]):
        self.act_id = act_id
        self.chapters = chapters
        self.topics = topics
        self.sections = sections
        self.parent = parent
        self.section_ids = [s.id for s in sections]
        self.section_index = {sid: i for i, sid in enumerate(self.section_ids)}
        self._validate()

    def _validate(self):
        nodes = [self.act_id] + self.chapters + self.topics + self.section_ids
        seen = set()
        duplicates = sorted({n for n in nodes if n in seen or seen.add(n)})
        if duplicates:
            raise HierarchyError(f"node ids appear under more than one parent: {duplicates}")
        orphans = sorted(n for n in nodes if n != self.act_id and n not in self.parent)
        if orphans:
            raise HierarchyError(f"nodes without a parent: {orphans}")
        for statute in self.sections:
            if not statute.sentences:
                raise HierarchyError(f"section {statute.id} has no text")

    def __contains__(self, section_id: str) -> bool:
        return section_id in self.section_index

    def label_vector(self, labels: set[str]) -> np.ndarray:
        y = np.zeros(len(self.section_ids))
        for lab in labels:
            y[self.section_index[lab]] = 1.0
        return y


def load_hierarchy(path, expected_sections: int | None = None) -> StatuteHierarchy:
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise HierarchyError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(doc, dict) or "chapters" not in doc:
        raise HierarchyError(f"{path}: expected a single act object with 'chapters'")

    act_id = str(doc.get("id", "ACT"))
    chapters: list[str] = []
    topics: list[str] = []
    sections: list[Statute] = []
    parent: dict[str, str] = {}
    for chapter in doc["chapters"]:
        cid = str(chapter["id"])
        chapters.append(cid)
        parent[cid] = act_id
        for topic in chapter.get("topics", []):
            tid = str(topic["id"])
            topics.append(tid)
            parent[tid] = cid
            for sec in topic.get("sections", []):
                sid = str(sec["id"])
                sentences = _tokenize_text_field(sec.get("text", ""))
                sections.append(Statute(id=sid, title=str(sec.get("title", "")),
                                        sentences=sentences, parent_topic=tid))
                parent[sid] = tid

    hierarchy = StatuteHierarchy(act_id, chapters, topics, sections, parent)
    if expected_sections is not None and len(sections) != expected_sections:
        raise HierarchyError(
            f"{path}: {len(sections)} sections, expected {expected_sections}")
    return hierarchy


@dataclass
class LoadReport:
    """Bookkeeping for a load_facts pass."""
    n_loaded: int = 0
    n_excluded: int = 0            # records left with zero known labels
    n_dropped_labels: int = 0      # label occurrences outside the hierarchy
    excluded_ids: list[str] = field(default_factory=list)


def load_facts_with_report(path, hierarchy: StatuteHierarchy):
    path = Path(path)
    report = LoadReport()
    docs: list[FactDocument] = []
    seen_ids: set[str] = set()
    n_lines = 0
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            n_lines += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                raise CorpusError(f"{path}:{lineno}: malformed JSON record") from None
            for key in ("id", "text", "labels"):
                if key not in record:
                    raise CorpusError(f"{path}:{lineno}: record missing '{key}'")
            doc_id = str(record["id"])
            if doc_id in seen_ids:
                raise CorpusError(f"{path}:{lineno}: duplicate document id {doc_id!r}")
            seen_ids.add(doc_id)
            sentences = _tokenize_text_field(record["text"])
            if not sentences:
                raise CorpusError(f"{path}:{lineno}: document {doc_id!r} has no tokens")
            labels = {str(lab) for lab in record["labels"]}
            known = {lab for lab in labels if lab in hierarchy}
            report.n_dropped_labels += len(labels) - len(known)
            if not known:
                report.n_excluded += 1
                report.excluded_ids.append(doc_id)
                continue
            docs.append(FactDocument(id=doc_id, court=str(record.get("court", "synthetic")),
                                     sentences=sentences, labels=known))
    if n_lines == 0:
        raise CorpusError(f"{path}: empty facts file")
    report.n_loaded = len(docs)
    return docs, report


def load_facts(path, hierarchy: StatuteHierarchy) -> list[FactDocument]:
    docs, _ = load_facts_with_report(path, hierarchy)
    return docs


class Vocabulary:
    """Token index with reserved padding (0) and unknown (1) slots.

    Tokens keep their order of first appearance; a checkpoint stores them in
    that order, so every index survives a reload.
    """

    def __init__(self, tokens: list[str], freqs: dict[str, int]):
        self.tokens = [PAD_TOKEN, UNK_TOKEN] + list(tokens)
        self.freqs = dict(freqs)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise CorpusError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self.tokens)

    def encode(self, token: str) -> int:
        return self.index.get(token, UNK_INDEX)

    def decode(self, idx: int) -> str:
        return self.tokens[idx]

    def load_vectors(self, path, dim: int):
        """Read whitespace-separated `token v1 .. v_dim` lines, skipping other
        widths. Returns the (|V|, dim) matrix (zeros where absent) and a found
        mask; refuses a file with no line of width `dim`."""
        matrix = np.zeros((len(self.tokens), dim))
        found = np.zeros(len(self.tokens), dtype=bool)
        widths = set()
        with Path(path).open(encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if parts:
                    widths.add(len(parts) - 1)
                if len(parts) != dim + 1:
                    continue
                idx = self.index.get(parts[0])
                if idx is not None and idx >= 2:
                    matrix[idx] = [float(x) for x in parts[1:]]
                    found[idx] = True
        if dim not in widths:
            raise CorpusError(f"{path}: no vector of width {dim} (embed_dim); "
                              f"widths seen: {sorted(widths)}")
        return matrix, found


def build_vocab(corpora, min_freq: int = 1) -> Vocabulary:
    """Count tokens over the given token streams and keep those with
    frequency >= min_freq, in order of first appearance."""
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    freqs: dict[str, int] = {}
    for stream in corpora:
        for token in stream:
            freqs[token] = freqs.get(token, 0) + 1
    if not freqs:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    kept = [tok for tok, n in freqs.items() if n >= min_freq]
    return Vocabulary(kept, {tok: freqs[tok] for tok in kept})


def encode_corpus(docs, vocab: Vocabulary, max_sents: int, max_words: int):
    """Index grids (N, S, W) and boolean masks of real tokens for `docs`.

    Truncation keeps the first `max_sents` sentences and the first
    `max_words` words of each. The grids are allocated at the extent of what
    is kept: S reaches the last non-empty kept sentence of any document and
    W the longest kept sentence, both at least 1. No grid is ever built at
    the caps."""
    if max_sents < 1 or max_words < 1:
        raise ValueError("max_sents and max_words must be >= 1")
    kept = [[sentence[:max_words] for sentence in doc.sentences[:max_sents]] for doc in docs]
    s_len = max([1] + [i + 1 for doc in kept for i, words in enumerate(doc) if words])
    w_len = max([1] + [len(words) for doc in kept for words in doc])
    grids = np.full((len(docs), s_len, w_len), PAD_INDEX, dtype=np.int64)
    masks = np.zeros((len(docs), s_len, w_len), dtype=bool)
    for i, doc in enumerate(kept):
        for j, words in enumerate(doc[:s_len]):
            grids[i, j, : len(words)] = [vocab.encode(w) for w in words]
            masks[i, j, : len(words)] = True
    return grids, masks
