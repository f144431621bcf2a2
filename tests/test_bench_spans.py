"""The benchmark tracer (bench/spans.py) still finds every caloron function it
wraps, so a traced run (`bench/run.py --trace 1`) cannot fail on a renamed or
deleted one, and its document hook still finds each document's path."""
import importlib
import importlib.util
from pathlib import Path

from caloron import cli, lattice, serialize
from caloron.transform import ProductConnection

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


def test_bench_tracer_measures_documents(tmp_path):
    """A traced `transform` counts the bytes of the document it reads and the
    one it writes (the tracer reads each path from the call's last argument),
    and uninstalling puts the untraced writer back."""
    grid = lattice.Grid(sizes=(4, 8), base_axes=(0,))
    A = lattice.sample("su2_band_limited", grid, lattice.SU2, {"max_mode": 1}, seed=3)
    src, out = tmp_path / "w.json", tmp_path / "pair.json"
    serialize.save_document(serialize.connection_to_doc(ProductConnection.from_one_form(A)),
                            str(src))
    writer = serialize.save_document
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        assert serialize.save_document is not writer
        assert cli.main(["transform", "--input", str(src), "--direction", "forward",
                         "--output", str(out)]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    assert serialize.save_document is writer
    want = (src.stat().st_size + out.stat().st_size) / 2**20
    assert tracer.counters["serialize.doc_mb"] == want
    names = [span[0] for span in tracer.spans]
    assert names.count("serialize.load_document") == names.count("serialize.save_document") == 1
