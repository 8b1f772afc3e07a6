"""Exception types shared across the pipeline.

All errors raised for bad user input derive from VckbError so the CLI can
map them to exit code 1; anything else escaping to the top level is treated
as an internal invariant violation (exit code 2).
"""


class VckbError(Exception):
    """Base class for input and data errors."""


class InvalidCategory(VckbError):
    """Category string names a combination outside the valid taxonomy leaves."""


class MalformedRecord(VckbError):
    """An input line violates the documented schema or is not valid UTF-8."""

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = str(path)
        self.line_number = line_number
        self.message = message

    def __reduce__(self):
        # Pickling rebuilds an exception from its args, here only the joined
        # text; a worker process must hand back all three fields.
        return type(self), (self.path, self.line_number, self.message)


class DanglingReference(MalformedRecord):
    """A triple record refers to an object id absent from its image."""


class EmptyCorpus(VckbError):
    """Scene corpus contained no records."""


class EmptyKb(VckbError):
    """Knowledge-base file contained no edges."""


class EmptyPhrase(VckbError):
    """Phrase was empty or whitespace-only."""


class NotAnNP(VckbError):
    """Token span is not a recognizable noun phrase."""


class InvalidConfig(VckbError):
    """A sampling value, the build's tau, or the instruction template file
    violates its invariants."""


class IoFailure(VckbError):
    """Reading or writing a file failed."""
