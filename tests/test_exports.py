"""The package's export list names each public object once, and every
name in it resolves."""

import accelcert


def test_all_names_resolve():
    missing = [name for name in accelcert.__all__
               if not hasattr(accelcert, name)]
    assert missing == []


def test_all_names_unique():
    assert len(set(accelcert.__all__)) == len(accelcert.__all__)
