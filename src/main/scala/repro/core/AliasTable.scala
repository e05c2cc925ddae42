package repro.core

import java.util.SplittableRandom

/** Vose alias table — O(1) biased sampling over a fixed weight vector.
  *
  * This is the classic Monte Carlo method of paper §2.3: the `n` candidates
  * are split into at most `2n` pieces placed in `n` equal-volume buckets,
  * each holding at most two candidates. Sampling draws a bucket uniformly and
  * then one of its (at most) two residents. Construction is O(n), sampling
  * O(1); any update requires a full O(n) rebuild, which is exactly why the
  * paper's Bingo structure builds alias tables only over the *small*
  * inter-group weight vector (≤ K ≈ 64 entries). Here it serves KnightKing
  * and the Table 1 alias sampler.
  *
  * The table also exposes [[probabilities]], the *exact* probability the
  * table assigns to each index — Vose's construction is exact, so tests can
  * assert `probabilities(i) == w_i / Σw` deterministically instead of
  * statistically.
  */
final class AliasTable private (
    private val prob: Array[Double],
    private val alias: Array[Int],
) extends Serializable {

  /** Draw one index with probability proportional to its weight. */
  def sample(rng: SplittableRandom): Int = {
    val bucket = rng.nextInt(prob.length)
    if (rng.nextDouble() < prob(bucket)) bucket else alias(bucket)
  }

  /** Exact probabilities for all indices, normalised to sum to 1. */
  def probabilities: Array[Double] = {
    val p = new Array[Double](prob.length)
    var j = 0
    while (j < prob.length) {
      p(j) += prob(j)
      if (alias(j) >= 0 && prob(j) < 1.0) p(alias(j)) += 1.0 - prob(j)
      j += 1
    }
    var i = 0
    while (i < p.length) { p(i) /= prob.length; i += 1 }
    p
  }

  /** Retained heap bytes: the object and its two parallel arrays. */
  def memoryBytes: Long = Heap.obj(2 * Heap.Ref) + Heap.array(prob.length, 8) + Heap.array(alias.length, 4)
}

object AliasTable {

  /** Build an alias table over `weights` (all must be >= 0, sum > 0). */
  def apply(weights: Array[Double]): AliasTable = {
    val n = weights.length
    require(n > 0, "alias table needs at least one candidate")
    var total = 0.0
    var i = 0
    while (i < n) {
      require(weights(i) >= 0.0, s"negative weight at $i: ${weights(i)}")
      total += weights(i)
      i += 1
    }
    require(total > 0.0, "alias table needs positive total weight")

    val prob = new Array[Double](n)
    val alias = new Array[Int](n)
    val scaled = new Array[Double](n)
    i = 0
    while (i < n) { scaled(i) = weights(i) * n / total; i += 1 }

    // int-array stacks (no boxing — alias rebuild is on baselines' hot path)
    val small = new Array[Int](n)
    val large = new Array[Int](n)
    var nSmall = 0
    var nLarge = 0
    i = 0
    while (i < n) {
      if (scaled(i) < 1.0) { small(nSmall) = i; nSmall += 1 }
      else { large(nLarge) = i; nLarge += 1 }
      i += 1
    }
    while (nSmall > 0 && nLarge > 0) {
      nSmall -= 1
      val s = small(nSmall)
      val l = large(nLarge - 1)
      prob(s) = scaled(s)
      alias(s) = l
      scaled(l) = (scaled(l) + scaled(s)) - 1.0
      if (scaled(l) < 1.0) { nLarge -= 1; small(nSmall) = l; nSmall += 1 }
    }
    while (nLarge > 0) { nLarge -= 1; val l = large(nLarge); prob(l) = 1.0; alias(l) = l }
    while (nSmall > 0) { nSmall -= 1; val s = small(nSmall); prob(s) = 1.0; alias(s) = s }
    new AliasTable(prob, alias)
  }
}
