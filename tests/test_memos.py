"""Every memo the package keeps at module level is bounded, so that a long
run's memory stays flat: a later unbounded `functools.cache` fails here."""

import importlib
import pkgutil

import gbmoments


def test_module_memos_are_bounded():
    memos = {}
    for info in pkgutil.iter_modules(gbmoments.__path__):
        module = importlib.import_module(f"gbmoments.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                memos[f"{info.name}.{name}"] = value
    assert {"moments._graph_exponent", "partitions._class_of", "qproduct._q_layout", "broken._product_of"} <= set(memos)
    for name, memo in memos.items():
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and maxsize <= 4096, name
