import json
from pathlib import Path

import numpy as np
import pytest

from lexcite.corpus import FactDocument, Statute, StatuteHierarchy


def make_hierarchy(topic_sections: dict[str, list[str]], chapters: dict[str, list[str]] | None = None,
                   act_id: str = "ACT") -> StatuteHierarchy:
    """Assemble a hierarchy object directly (tests bypass the file layer)."""
    topics = list(topic_sections)
    if chapters is None:
        chapters = {"CH1": topics}
    parent: dict[str, str] = {}
    sections = []
    for ch, ts in chapters.items():
        parent[ch] = act_id
        for t in ts:
            parent[t] = ch
            for sid in topic_sections[t]:
                parent[sid] = t
                sections.append(Statute(id=sid, title=f"section {sid}",
                                        sentences=[[f"text{sid}", "of", sid]], parent_topic=t))
    return StatuteHierarchy(act_id, list(chapters), topics, sections, parent)


def make_fact(doc_id: str, labels, court: str = "synthetic", sentences=None) -> FactDocument:
    if sentences is None:
        sentences = [["facts", "of", doc_id]]
    return FactDocument(id=doc_id, court=court, sentences=sentences, labels=set(labels))


def widen_to_float64(model):
    """Cast a model's parameters to float64, so that it computes in float64:
    for checks at float64 tolerances, such as finite differences."""
    model.load_state_arrays({k: v.astype(np.float64) for k, v in model.state_arrays().items()})
    return model


def write_hierarchy_file(path: Path, topic_sections: dict[str, list[str]],
                         chapters: dict[str, list[str]] | None = None) -> Path:
    topics = list(topic_sections)
    if chapters is None:
        chapters = {"CH1": topics}
    doc = {
        "id": "ACT",
        "title": "synthetic act",
        "chapters": [
            {
                "id": ch,
                "title": ch,
                "topics": [
                    {
                        "id": t,
                        "title": t,
                        "sections": [
                            {"id": s, "title": f"section {s}", "text": f"text of section {s}."}
                            for s in topic_sections[t]
                        ],
                    }
                    for t in ts
                ],
            }
            for ch, ts in chapters.items()
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_facts_file(path: Path, records) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


@pytest.fixture
def tiny_hierarchy():
    return make_hierarchy({"T1": ["S1"], "T2": ["S2", "S3"]})


@pytest.fixture
def rng():
    return np.random.default_rng(0)
