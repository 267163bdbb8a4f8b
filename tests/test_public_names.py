"""Every public name resolves: each module's ``__all__`` and the package's re-exports."""
import importlib
import pkgutil

import smoothopt


def modules():
    """The package and every module under it."""
    yield smoothopt
    for info in pkgutil.walk_packages(smoothopt.__path__, prefix="smoothopt."):
        yield importlib.import_module(info.name)


def test_every_all_entry_exists():
    missing = [f"{m.__name__}.{name}" for m in modules() for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []


def test_package_re_exports_are_public_names_of_their_modules():
    exported = {id(getattr(m, name)) for m in modules() if m is not smoothopt
                for name in getattr(m, "__all__", ())}
    re_exports = [name for name, value in vars(smoothopt).items()
                  if not name.startswith("_") and not isinstance(value, type(smoothopt))]
    assert re_exports
    assert [name for name in re_exports if id(getattr(smoothopt, name)) not in exported] == []
