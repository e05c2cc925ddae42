package repro.core

import java.util.SplittableRandom

/** Rejection sampling — paper §2.3.
  *
  * Keeps only the raw weight array plus the running maximum. Sampling picks
  * a candidate uniformly and accepts it with probability `w_i / max(w)`;
  * the expected cost is O(d·max(w) / Σw) tries. Insertion is O(1); deletion
  * is O(d) — matching Table 1 — because the deleted candidate must be
  * located by value/position scan and a vanished maximum forces a rescan.
  */
final class RejectionSampler extends DynamicSampler with Serializable {
  private var weights = new Array[Double](4)
  private var n = 0
  private var maxW = 0.0

  /** Cumulative number of rejected proposals (read by ClassicSamplersSpec). */
  var rejections: Long = 0L

  def size: Int = n
  /** The running maximum, the acceptance bound (read by ClassicSamplersSpec). */
  def maxWeight: Double = maxW
  /** Candidate `i`'s weight (read by ClassicSamplersSpec). */
  def weightOf(i: Int): Double = weights(i)

  /** O(1) amortised. */
  def insert(w: Double): Unit = {
    require(w > 0.0 && w <= Double.MaxValue, s"weight must be positive and finite: $w")
    if (n == weights.length) weights = java.util.Arrays.copyOf(weights, n * 2)
    weights(n) = w
    n += 1
    if (w > maxW) maxW = w
  }

  /** O(d) — shift the tail; rescan for the max if the max was removed. */
  def delete(i: Int): Unit = {
    require(i >= 0 && i < n, s"index $i out of range [0,$n)")
    val removed = weights(i)
    System.arraycopy(weights, i + 1, weights, i, n - i - 1)
    n -= 1
    if (removed == maxW) {
      maxW = 0.0
      var j = 0
      while (j < n) { if (weights(j) > maxW) maxW = weights(j); j += 1 }
    }
  }

  /** Expected O(d·max(w)/Σw) tries. */
  def sample(rng: SplittableRandom): Int = {
    require(n > 0, "empty sampler")
    while (true) {
      val i = rng.nextInt(n)
      if (rng.nextDouble() * maxW < weights(i)) return i
      rejections += 1
    }
    -1 // unreachable
  }

  /** The object (a reference, `n`, `maxW` and `rejections`) and its array. */
  def memoryBytes: Long = Heap.obj(Heap.Ref + 4 + 2 * 8) + Heap.array(weights.length, 8)
}
