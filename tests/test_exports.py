"""The package's public names: `rcstab.__all__` is the explicit export list."""

import rcstab


def test_all_has_no_duplicates():
    assert len(rcstab.__all__) == len(set(rcstab.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in rcstab.__all__ if not hasattr(rcstab, name)]
    assert missing == []


def test_star_import_binds_exactly_the_listed_names():
    namespace = {}
    exec("from rcstab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(rcstab.__all__)
