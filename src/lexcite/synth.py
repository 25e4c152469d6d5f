"""Synthetic desk-scale corpora for end-to-end verification.

Each section owns a keyword pool and sits under a topic that also owns a few
shared keywords (so sections of one topic look textually similar and are
frequently co-cited). Documents sample 1-4 sections, mostly within a single
topic, with citation frequency skewed across sections; sentences mix section
keywords, topic keywords and noise. Everything is deterministic given the
seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .corpus import COURTS

KEYWORDS_PER_SECTION = 6
SECTION_KW_SHARE = 0.5  # fraction of content words from the cited section's own pool
KEYWORDS_PER_TOPIC = 4
NOISE_TOKENS = 30
LABEL_COUNT_DIST = ((1, 0.2), (2, 0.3), (3, 0.3), (4, 0.2))  # mean 2.5


def synth_hierarchy(n_sections: int, n_topics: int | None = None) -> dict:
    """1 act / 2 chapters / n topics, sections dealt round-robin to topics."""
    if n_sections < 1:
        raise ValueError("need at least one section")
    if n_topics is None:
        n_topics = max(2, n_sections // 3) if n_sections > 1 else 1
    n_topics = min(n_topics, n_sections)
    section_topics = [i % n_topics for i in range(n_sections)]

    topics = []
    for t in range(n_topics):
        sections = [
            {
                "id": f"{100 + s}",
                "title": f"offence {100 + s}",
                "text": " ".join(
                    [f"whoever commits sec{s}_{j} with sec{s}_{j + 1}." for j in
                     range(0, KEYWORDS_PER_SECTION - 1, 2)]
                    + [f"within the ambit of top{t}_{j}." for j in range(KEYWORDS_PER_TOPIC // 2)]
                ),
            }
            for s in range(n_sections) if section_topics[s] == t
        ]
        topics.append({"id": f"T{t}", "title": f"topic {t}", "sections": sections})
    half = (n_topics + 1) // 2
    return {
        "id": "ACT",
        "title": "synthetic act",
        "chapters": [
            {"id": "CH0", "title": "chapter 0", "topics": topics[:half]},
            {"id": "CH1", "title": "chapter 1", "topics": topics[half:]},
        ] if n_topics > 1 else [{"id": "CH0", "title": "chapter 0", "topics": topics}],
    }


def synth_corpus(n_docs: int, n_sections: int, seed: int, n_topics: int | None = None,
                 topic_coherence: float = 0.85, skew: float = 1.0, dilute_rare: float = 0.0):
    """Returns (fact records, hierarchy document).

    `skew` steepens citation popularity (weight (1 + rank)^-skew); larger
    values produce longer rare-section tails. `dilute_rare` replaces that
    fraction of the less-cited half's keywords with topic keywords, so rare
    sections are textually faint and mainly recognizable through what they
    are co-cited with.
    """
    if n_docs < 1:
        raise ValueError("need at least one document")
    rng = np.random.default_rng(seed)
    hierarchy = synth_hierarchy(n_sections, n_topics)
    section_ids = []
    section_topic = {}
    section_keywords = {}
    topic_keywords = {}
    for chapter in hierarchy["chapters"]:
        for topic in chapter["topics"]:
            topic_keywords[topic["id"]] = [f"top{topic['id'][1:]}_{j}" for j in range(KEYWORDS_PER_TOPIC)]
            for sec in topic["sections"]:
                s = int(sec["id"]) - 100
                section_ids.append(sec["id"])
                section_topic[sec["id"]] = topic["id"]
                section_keywords[sec["id"]] = [f"sec{s}_{j}" for j in range(KEYWORDS_PER_SECTION)]

    # skewed citation popularity; rank follows the numeric section id so that
    # round-robin topic assignment pairs frequent and rare sections per topic
    rank = {sid: int(sid) - 100 for sid in section_ids}
    popularity = np.array([(1.0 + rank[sid]) ** -skew for sid in section_ids])
    popularity /= popularity.sum()
    by_topic: dict[str, list[str]] = {}
    for sid in section_ids:
        by_topic.setdefault(section_topic[sid], []).append(sid)

    counts = [c for c, _ in LABEL_COUNT_DIST]
    count_p = [p for _, p in LABEL_COUNT_DIST]
    noise = [f"filler{m}" for m in range(NOISE_TOKENS)]
    records = []
    for i in range(n_docs):
        want = int(rng.choice(counts, p=count_p))
        want = min(want, len(section_ids))
        anchor = section_ids[int(rng.choice(len(section_ids), p=popularity))]
        labels = [anchor]
        while len(labels) < want:
            same_topic = [s for s in by_topic[section_topic[anchor]] if s not in labels]
            if same_topic and rng.random() < topic_coherence:
                pool = same_topic
            else:
                pool = [s for s in section_ids if s not in labels]
            if not pool:
                break
            weights = np.array([popularity[section_ids.index(s)] for s in pool])
            labels.append(pool[int(rng.choice(len(pool), p=weights / weights.sum()))])

        rare_cut = len(section_ids) // 2
        sentences = []
        for sid in labels:
            for _ in range(int(rng.integers(1, 3))):
                n_words = int(rng.integers(6, 11))
                words = []
                topic_share = SECTION_KW_SHARE + 0.2
                faint = dilute_rare if rank[sid] >= rare_cut else 0.0
                for _ in range(n_words):
                    roll = rng.random()
                    tk = topic_keywords[section_topic[sid]]
                    if roll < SECTION_KW_SHARE:
                        if faint and rng.random() < faint:
                            words.append(tk[int(rng.integers(len(tk)))])
                        else:
                            words.append(section_keywords[sid][int(rng.integers(KEYWORDS_PER_SECTION))])
                    elif roll < topic_share:
                        words.append(tk[int(rng.integers(len(tk)))])
                    else:
                        words.append(noise[int(rng.integers(NOISE_TOKENS))])
                sentences.append(" ".join(words) + ".")
        n_words = int(rng.integers(5, 9))
        sentences.append(" ".join(noise[int(rng.integers(NOISE_TOKENS))] for _ in range(n_words)) + ".")
        order = rng.permutation(len(sentences))
        records.append({
            "id": f"doc{i}",
            "court": COURTS[int(rng.integers(len(COURTS)))],
            "text": [sentences[j] for j in order],
            "labels": sorted(set(labels)),
        })
    return records, hierarchy


def write_synth(out_dir, n_docs: int, n_sections: int, seed: int,
                n_topics: int | None = None, topic_coherence: float = 0.85,
                skew: float = 1.0, dilute_rare: float = 0.0):
    """Write facts.jsonl + hierarchy.json under out_dir; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, hierarchy = synth_corpus(n_docs, n_sections, seed, n_topics, topic_coherence,
                                      skew, dilute_rare)
    facts_path = out_dir / "facts.jsonl"
    with facts_path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    hierarchy_path = out_dir / "hierarchy.json"
    hierarchy_path.write_text(json.dumps(hierarchy, indent=2), encoding="utf-8")
    return facts_path, hierarchy_path
