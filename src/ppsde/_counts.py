"""The one rule for a count: a whole number at or above a floor, kept as an int."""


def whole(value, what, minimum):
    """``int(value)``, or ValueError "<what> must be a whole number >= <minimum>".

    A whole float such as ``1e5`` passes; a fraction, NaN, an infinity and
    a value that is not a number, such as ``"3"`` or None, fail.
    """
    try:
        ok = value % 1 == 0 and value >= minimum  # NaN and inf fail the first test
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{what} must be a whole number >= {minimum}")
    return int(value)
