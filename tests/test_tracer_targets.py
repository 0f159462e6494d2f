"""The bench tracer's targets resolve against the qtoda modules.

`qbench/tracing.py` wraps qtoda functions by name, so a rename or deletion
in qtoda silently drops a span from the benchmark.  The tracer file is
loaded by path and left unchanged; its own resolver looks up each target.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "qbench" / "tracing.py"

# Targets whose functions were removed from qtoda before this check
# existed; the benchmark's target list is to drop or replace them.
KNOWN_MISSING = {
    "symbolic.ratsum_eval", "symbolic.random_point", "symbolic.eq_random",
    "whittaker.whittaker_pair_localized",
    "toda.whittaker_pair_series", "toda.coefficient_sum_series",
    "toda.apply_sum_op", "toda.apply_difference_op", "toda.check_eigen",
    "toda.calibrate_sign",
    "cli.suite_relations", "cli.suite_summation", "cli.suite_whittaker",
    "cli.suite_toda",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("qbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_tracer_target_is_lost():
    tracing = load_tracing()
    missing = set()
    for name, module_name, path in tracing.TARGETS:
        try:
            tracing._resolve(importlib.import_module(module_name), path)
        except AttributeError:
            missing.add(name)
    assert missing <= KNOWN_MISSING
