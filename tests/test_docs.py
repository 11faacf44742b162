import ast
import inspect
import textwrap

import disopt


def test_every_public_name_has_a_written_docstring():
    # read from the source: a dataclass without one gets its signature as
    # __doc__, which states no contract
    def written(obj) -> bool:
        return bool(ast.get_docstring(ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]))

    assert [name for name in disopt.__all__ if not written(getattr(disopt, name))] == []
