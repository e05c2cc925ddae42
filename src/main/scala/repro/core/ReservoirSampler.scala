package repro.core

import java.util.SplittableRandom

/** Weighted reservoir sampling of a single element — FlowWalker's primitive.
  *
  * FlowWalker [39] performs each random-walk step with parallel reservoir
  * sampling over the neighbor list, which costs O(d) per step and needs no
  * auxiliary per-vertex structure. We implement the sequential equivalent
  * (Chao's procedure for k = 1): stream the weights, keep one candidate, and
  * replace it with item `i` with probability `w_i / Σ_{j<=i} w_j`. The
  * result is an exact draw from the weighted distribution.
  */
object ReservoirSampler {

  /** One weighted draw over `weights(from until until)`; returns the index. */
  def sample(weights: Array[Double], from: Int, until: Int, rng: SplittableRandom): Int = {
    require(until > from, "empty range")
    var chosen = -1
    var cum = 0.0
    var i = from
    while (i < until) {
      val w = weights(i)
      if (w > 0.0) {
        cum += w
        if (rng.nextDouble() * cum < w) chosen = i
      }
      i += 1
    }
    chosen
  }
}
