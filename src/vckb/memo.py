"""The build's one kind of memo: a dict that clears itself at its cap, so it
stays bounded however many distinct keys a corpus holds. A hit is
`memo.get(key)`, a miss is stored with `memo.put(key, value)`. This module
imports nothing from the package, so every owner of a memo can use it.
"""


class Memo(dict):
    """A dict of at most `cap` keys, cleared whole when a miss finds it full."""

    __slots__ = ("cap",)

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def put(self, key, value):
        """Store value under key, clearing the memo first if it is full; return value."""
        if len(self) >= self.cap:
            self.clear()
        self[key] = value
        return value
