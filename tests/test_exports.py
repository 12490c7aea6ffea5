import importlib
import pkgutil

import pageorder


def test_every_exported_name_resolves():
    modules = [pageorder] + [
        importlib.import_module(info.name) for info in pkgutil.walk_packages(pageorder.__path__, "pageorder.")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 10
    assert missing == []
