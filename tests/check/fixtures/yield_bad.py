"""Fixture: literal-value yields simlint must flag."""


def bad_process(sim):
    yield 42
    yield "not an event"
    yield (1, 2)
    yield 2 * 1e-9  # an int leaf: not a float delay
    yield {"k": 1.0}
    yield f"{1.0}"
