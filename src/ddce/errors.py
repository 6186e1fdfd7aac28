"""The package's one exception type.

The library raises only ``DdceError`` for bad data, configuration and
pipeline states; its message says what went wrong and where. The CLI
prints that message as one ``error:`` line on stderr and exits 2.
"""


class DdceError(Exception):
    """A data, configuration or pipeline error raised by this package."""
