package repro.core

import java.util.SplittableRandom

/** Inverse Transform Sampling (ITS) — paper §2.3.
  *
  * Maintains the prefix-sum (CDF) array `C` of the candidate biases and
  * samples by drawing `x ∈ [0, C_d)` uniformly, then binary-searching the
  * interval that contains `x`. Complexities match Table 1 of the paper:
  * O(log d) sampling, O(1) amortised insertion (append one prefix entry),
  * O(d) deletion (the suffix of the CDF must be rebuilt).
  */
final class ItsSampler extends DynamicSampler with Serializable {
  import ItsSampler.{draw, fillCdf}

  private var weights = new Array[Double](4)
  private var cdf = new Array[Double](4) // cdf(i) = Σ_{j<=i} w_j
  private var n = 0

  def size: Int = n
  /** The CDF's last entry (read by ClassicSamplersSpec). */
  def totalWeight: Double = if (n == 0) 0.0 else cdf(n - 1)

  private def grow(): Unit = {
    if (n == weights.length) {
      weights = java.util.Arrays.copyOf(weights, n * 2)
      cdf = java.util.Arrays.copyOf(cdf, n * 2)
    }
  }

  /** O(1) amortised — append a candidate with weight `w`. */
  def insert(w: Double): Unit = {
    require(w > 0.0 && w <= Double.MaxValue, s"weight must be positive and finite: $w")
    grow()
    weights(n) = w
    fillCdf(weights, cdf, n, n + 1)
    n += 1
  }

  /** O(d) — remove candidate `i`, shifting the tail and rebuilding the CDF suffix. */
  def delete(i: Int): Unit = {
    require(i >= 0 && i < n, s"index $i out of range [0,$n)")
    System.arraycopy(weights, i + 1, weights, i, n - i - 1)
    n -= 1
    fillCdf(weights, cdf, i, n)
  }

  /** O(log d) — binary search the CDF for a uniform draw. */
  def sample(rng: SplittableRandom): Int = {
    require(n > 0, "empty sampler")
    draw(cdf, n, rng)
  }

  /** Exact probability of candidate `i`, off the CDF that [[sample]] draws on (read by ClassicSamplersSpec). */
  def probabilityOf(i: Int): Double = (cdf(i) - (if (i == 0) 0.0 else cdf(i - 1))) / cdf(n - 1)

  /** The object (two references and `n`) and its two arrays. */
  def memoryBytes: Long = Heap.obj(2 * Heap.Ref + 4) + 2 * Heap.array(weights.length, 8)
}

object ItsSampler {

  /** Refill `cdf(from until until)` with the prefix sums of `w`, continuing
    * from `cdf(from - 1)`: cdf(i) = Σ_{j<=i} w_j.
    */
  def fillCdf(w: Array[Double], cdf: Array[Double], from: Int, until: Int): Unit = {
    var acc = if (from == 0) 0.0 else cdf(from - 1)
    var i = from
    while (i < until) { acc += w(i); cdf(i) = acc; i += 1 }
  }

  /** Inverse transform on the CDF `cdf(0 until n)`, n > 0: the first index
    * whose prefix sum exceeds a uniform draw in [0, cdf(n - 1)). O(log n).
    */
  def draw(cdf: Array[Double], n: Int, rng: SplittableRandom): Int = {
    val x = rng.nextDouble() * cdf(n - 1)
    var lo = 0
    var hi = n - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cdf(mid) <= x) lo = mid + 1 else hi = mid
    }
    lo
  }
}
