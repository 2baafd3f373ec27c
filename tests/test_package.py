"""The package's public surface."""
import inghamlab


def test_all_names_resolve():
    missing = [name for name in inghamlab.__all__
               if not hasattr(inghamlab, name)]
    assert missing == []
    assert len(set(inghamlab.__all__)) == len(inghamlab.__all__)
