"""The package's export list: every name in ``cyclecover.__all__``
resolves, the lazily imported ``realization`` names included, and every
public attribute of the package that is not a submodule is listed there."""

import types

import cyclecover


def test_every_exported_name_resolves():
    assert len(set(cyclecover.__all__)) == len(cyclecover.__all__)
    for name in cyclecover.__all__:
        assert getattr(cyclecover, name) is not None, name
    namespace = {}
    exec("from cyclecover import *", namespace)
    assert set(cyclecover.__all__) <= set(namespace)
    for name in cyclecover._REALIZATION:
        assert name in cyclecover.__all__, name


def test_every_public_attribute_is_exported():
    public = {name for name in dir(cyclecover)
              if not name.startswith("_")
              and not isinstance(getattr(cyclecover, name), types.ModuleType)}
    assert public <= set(cyclecover.__all__), sorted(public - set(cyclecover.__all__))
