"""Every pfclab name the benchmark's span recorder patches must resolve."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "pfcbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("pfcbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    # a traced benchmark run patches each function where it is defined and
    # in every module that imports it by name; a missing name would only
    # show there, as an AttributeError
    tracer = load_tracer()
    missing = []
    for span, home, attr, users in tracer.TRACED:
        if not hasattr(tracer._home(home), attr):
            missing.append(f"{span}: {home} has no {attr}")
        for user in users:
            module, alias = tracer._user(user, attr)
            if not hasattr(module, alias):
                missing.append(f"{span}: {module.__name__} has no {alias}")
    assert not missing, missing
