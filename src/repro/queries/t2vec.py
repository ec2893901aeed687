"""A learned trajectory-embedding similarity (t2vec substitute).

The paper instantiates its learning-based kNN measure with t2vec (Li et al.,
ICDE 2018), a GRU seq2seq model. Training a recurrent seq2seq from scratch in
numpy is out of proportion for this reproduction, so we substitute a
lighter-weight *learned* embedding with the same interface and the same role
in the experiments:

1. Space is discretized into grid cells; a trajectory becomes a sequence of
   cell tokens (consecutive duplicates collapsed) — exactly t2vec's
   tokenization step.
2. Token embeddings are trained with skip-gram + negative sampling over the
   token sequences of the *original* database, so co-visited cells land close
   in embedding space (this is the "learned" part).
3. A trajectory embeds as the mean of its token vectors; similarity is the
   Euclidean distance between embeddings.

The property that matters for the paper's experiments is preserved: the
measure is robust to dropping points that stay on the route (the cell
sequence barely changes) and degrades when simplification cuts corners
(cells go missing), which is what separates query-aware from error-driven
simplification under kNN(t2vec).
"""

from __future__ import annotations

import numpy as np

from repro.data.database import TrajectoryDatabase
from repro.data.trajectory import Trajectory


class T2VecEmbedder:
    """Grid-token skip-gram trajectory embedder.

    Parameters
    ----------
    resolution:
        Cells per spatial axis.
    dim:
        Embedding dimensionality.
    window:
        Skip-gram context window (tokens).
    negatives:
        Negative samples per positive pair.
    epochs:
        Training passes over the token corpus.
    lr:
        SGD learning rate.
    seed:
        Seed for initialization and negative sampling.
    """

    def __init__(
        self,
        resolution: int = 24,
        dim: int = 16,
        window: int = 2,
        negatives: int = 4,
        epochs: int = 3,
        lr: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.resolution = resolution
        self.dim = dim
        self.window = window
        self.negatives = negatives
        self.epochs = epochs
        self.lr = lr
        self.seed = seed
        self._vocab: dict[tuple[int, int], int] = {}
        self._vectors: np.ndarray | None = None
        self._origin: np.ndarray | None = None
        self._cell_size: np.ndarray | None = None

    # ------------------------------------------------------------ tokenization
    def _fit_grid(self, db: TrajectoryDatabase) -> None:
        box = db.bounding_box
        self._origin = np.array([box.xmin, box.ymin])
        spans = np.array([box.xmax - box.xmin, box.ymax - box.ymin])
        spans[spans <= 0] = 1.0
        self._cell_size = spans / self.resolution

    def tokens_of(self, trajectory: Trajectory) -> list[tuple[int, int]]:
        """The trajectory's cell-token sequence (consecutive duplicates merged)."""
        if self._origin is None:
            raise RuntimeError("embedder is not fitted; call fit() first")
        rel = (trajectory.xy - self._origin) / self._cell_size
        cells = np.clip(np.floor(rel).astype(int), 0, self.resolution - 1)
        tokens: list[tuple[int, int]] = []
        for cell in map(tuple, cells):
            if not tokens or tokens[-1] != cell:
                tokens.append(cell)
        return tokens

    # ---------------------------------------------------------------- training
    def fit(self, db: TrajectoryDatabase) -> "T2VecEmbedder":
        """Train token embeddings on the (original) database."""
        self._fit_grid(db)
        sequences = [self.tokens_of(t) for t in db]
        vocab: dict[tuple[int, int], int] = {}
        for seq in sequences:
            for token in seq:
                vocab.setdefault(token, len(vocab))
        self._vocab = vocab
        rng = np.random.default_rng(self.seed)
        n = max(len(vocab), 1)
        center = rng.normal(0.0, 0.1, size=(n, self.dim))
        context = rng.normal(0.0, 0.1, size=(n, self.dim))
        id_sequences = [
            np.array([vocab[token] for token in seq], dtype=int)
            for seq in sequences
            if len(seq) >= 2
        ]
        for _ in range(self.epochs):
            for seq in id_sequences:
                self._train_sequence(seq, center, context, n, rng)
        self._vectors = center
        return self

    def _train_sequence(
        self,
        seq: np.ndarray,
        center: np.ndarray,
        context: np.ndarray,
        vocab_size: int,
        rng: np.random.Generator,
    ) -> None:
        for i, token in enumerate(seq):
            lo = max(0, i - self.window)
            hi = min(len(seq), i + self.window + 1)
            for j in range(lo, hi):
                if j == i:
                    continue
                self._sgd_pair(token, seq[j], 1.0, center, context)
                for neg in rng.integers(0, vocab_size, size=self.negatives):
                    if neg != seq[j]:
                        self._sgd_pair(token, int(neg), 0.0, center, context)

    def _sgd_pair(
        self,
        center_id: int,
        context_id: int,
        label: float,
        center: np.ndarray,
        context: np.ndarray,
    ) -> None:
        v, u = center[center_id], context[context_id]
        score = 1.0 / (1.0 + np.exp(-np.clip(v @ u, -30, 30)))
        grad = self.lr * (label - score)
        center[center_id] = v + grad * u
        context[context_id] = u + grad * v

    # --------------------------------------------------------------- embedding
    @property
    def is_fitted(self) -> bool:
        return self._vectors is not None

    def embed(self, trajectory: Trajectory) -> np.ndarray:
        """The trajectory's embedding vector (zeros for fully unseen routes)."""
        if self._vectors is None:
            raise RuntimeError("embedder is not fitted; call fit() first")
        ids = [
            self._vocab[token]
            for token in self.tokens_of(trajectory)
            if token in self._vocab
        ]
        if not ids:
            return np.zeros(self.dim)
        return self._vectors[ids].mean(axis=0)

    def distance(self, a: Trajectory, b: Trajectory) -> float:
        """Euclidean distance between trajectory embeddings."""
        return float(np.linalg.norm(self.embed(a) - self.embed(b)))
