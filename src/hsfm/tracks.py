"""Multi-image keypoint tracks shared by the matching and modeling stages."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Track:
    """A consistent correspondence: image id -> keypoint index."""

    members: dict

    def __len__(self):
        return len(self.members)

    def key(self):
        return tuple(sorted(self.members.items()))


@dataclass
class TrackSet:
    tracks: list = field(default_factory=list)

    def __len__(self):
        return len(self.tracks)

    def __iter__(self):
        return iter(self.tracks)

    def __getitem__(self, i) -> Track:
        return self.tracks[i]

    def as_key_set(self):
        return {t.key() for t in self.tracks}
