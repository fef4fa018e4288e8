"""Write the golden end-to-end fixture in tests/golden/.

    python3 scripts/write_golden.py

The fixture is a small synth event log (``events.jsonl``), a logistic and a
tree model fitted on all of its records with balanced class weights and τ
from ``select_threshold`` on the same records (``logistic.json``,
``tree.json``), and ``expected.json``: every record's vector and label, and
each model's row probability, batch probability and decision.
``tests/test_golden.py`` rebuilds all of it from the committed log and must
match bit for bit. Rewrite the fixture only in a change that means to move
these outputs, and say in that change which outputs moved and why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from suggestgate.dataset import class_weights, records_from_events  # noqa: E402
from suggestgate.features import FeatureVector  # noqa: E402
from suggestgate.gate import select_threshold, should_trigger  # noqa: E402
from suggestgate.model import (  # noqa: E402
    AcceptanceModel,
    TreeHyper,
    fit_logistic,
    fit_tree_ensemble,
    predict_proba,
    predict_proba_batch,
    save_model,
    split_to_arrays,
)
from suggestgate.synth import SynthConfig, synth_sessions  # noqa: E402
from suggestgate.telemetry import read_events, write_events  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
CONFIG = SynthConfig(n_sessions=6, seed=3)
TREE_HYPER = TreeHyper(n_trees=30, depth=3)
MODEL_FILES = {"logistic": "logistic.json", "tree_ensemble": "tree.json"}


def read_records(golden: Path = GOLDEN) -> list:
    records, _ = records_from_events(read_events(golden / "events.jsonl"))
    return records


def fit_models(records) -> dict[str, AcceptanceModel]:
    """Both model kinds fitted on ``records``, each with its ``select_threshold`` τ."""
    X, y = split_to_arrays(records)
    weights = class_weights(records)
    models = {"logistic": fit_logistic(X, y, weights),
              "tree_ensemble": fit_tree_ensemble(X, y, weights, TREE_HYPER)}
    return {kind: model.with_tau(select_threshold(model, records).tau)
            for kind, model in models.items()}


def outputs(records, models: dict[str, AcceptanceModel]) -> dict:
    """Every record's vector and label, and per model its τ, and each record's
    row probability (as the gate scores a ``FeatureVector``), batch
    probability and decision."""
    X, _ = split_to_arrays(records)
    vectors = [FeatureVector(r.x) for r in records]
    result = {"records": [{"x": list(r.x), "y": r.y} for r in records]}
    for kind, model in models.items():
        result[kind] = {
            "tau": model.tau,
            "row": [predict_proba(model, v) for v in vectors],
            "batch": predict_proba_batch(model, X).tolist(),
            "decision": [should_trigger(model, v, model.tau).decision.value for v in vectors],
        }
    return result


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    write_events(synth_sessions(CONFIG).events, GOLDEN / "events.jsonl")
    records = read_records()
    models = fit_models(records)
    for kind, name in MODEL_FILES.items():
        save_model(models[kind], GOLDEN / name)
    with open(GOLDEN / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(outputs(records, models), fh, indent=1)
        fh.write("\n")
    print(f"{len(records)} records written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
