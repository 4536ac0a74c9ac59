import wicketlab


def test_all_names_resolve():
    missing = [name for name in wicketlab.__all__ if not hasattr(wicketlab, name)]
    assert missing == []
    assert len(set(wicketlab.__all__)) == len(wicketlab.__all__)
