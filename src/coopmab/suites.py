"""Empty: the exp3 property checks that lived here run as tests in ``tests/test_exp3.py``.

The module stays importable because ``bench/spans.py`` imports every
``coopmab`` module by name, this one included; it can go once that list
no longer names it.
"""
