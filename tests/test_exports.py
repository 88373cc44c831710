import importlib
import inspect

import pytest

MODULES = ("bdf", "fem2d", "linalg", "splitsolve", "stability", "studies",
           "system")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exactly_the_public_functions_and_classes(name):
    mod = importlib.import_module(f"porosplit.{name}")
    missing = [entry for entry in mod.__all__ if not hasattr(mod, entry)]
    assert not missing, f"__all__ names what {name} does not define: {missing}"
    defined = {attr for attr, value in vars(mod).items()
               if not attr.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == mod.__name__}
    exported = {entry for entry in mod.__all__
                if inspect.isfunction(getattr(mod, entry))
                or inspect.isclass(getattr(mod, entry))}
    assert sorted(defined - exported) == [], "public but not in __all__"
    assert sorted(exported - defined) == [], "in __all__ but defined elsewhere"
