"""The package's public names."""

import cdag


def test_every_exported_name_imports():
    namespace = {}
    exec("from cdag import *", namespace)
    assert set(cdag.__all__) <= namespace.keys()
    assert len(set(cdag.__all__)) == len(cdag.__all__)
