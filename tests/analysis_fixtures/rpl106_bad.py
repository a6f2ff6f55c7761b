"""RPL106 golden-bad fixture: Operators off the single batch protocol."""


class Operator:
    def batches(self, ctx):
        raise NotImplementedError

    def rows(self, ctx):
        for batch in self.batches(ctx):
            yield from batch


class Silent(Operator):
    schema = None


class SilentChild(Silent):
    pass


class RowPath(Operator):
    def batches(self, ctx):
        yield []

    def rows(self, ctx):
        yield ()
