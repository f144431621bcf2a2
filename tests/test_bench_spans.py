"""The benchmark tracer (bench/spans.py) still finds every caloron function it
wraps, so a traced run (`bench/run.py --trace 1`) cannot fail on a renamed or
deleted one."""
import importlib
import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, attr: str):
    owner = module
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_bench_span_targets_resolve():
    """Every TARGETS entry names a callable of a caloron module; installing
    the tracer wraps them all, and uninstalling it puts the originals back."""
    spans = _load_spans()
    modules = {m: importlib.import_module(f"caloron.{m}") for m in spans.MODULES}
    originals = {}
    for mod_name, attr, name, _ in spans.TARGETS:
        fn = _resolve(modules[mod_name], attr)
        assert callable(fn), f"span {name}: caloron.{mod_name}.{attr} is gone"
        originals[mod_name, attr] = fn
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (mod_name, attr), fn in originals.items():
            assert _resolve(modules[mod_name], attr) is not fn
    finally:
        tracer.uninstall()
    for (mod_name, attr), fn in originals.items():
        assert _resolve(modules[mod_name], attr) is fn
