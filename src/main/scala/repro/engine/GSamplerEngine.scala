package repro.engine

import java.util.SplittableRandom

/** gSampler-like baseline [15] as used in paper §6.2.
  *
  * gSampler is a GPU graph-sampling system with matrix-centric APIs; as a
  * static-graph system it reconstructs its sampling state from scratch each
  * round ([[RebuildEngine]]). We model that state as per-vertex CDF
  * (prefix-sum) arrays sampled by inverse transform (binary search,
  * O(log d)) — the bulk "matrix" flavour of its per-step operators. It is
  * charged for what it holds: the reloaded lists plus the CDFs. The paper's
  * gSampler is the most memory-hungry system of Table 3 through GPU
  * matrix-API workspace, which this CPU model does not allocate.
  */
final class GSamplerEngine(numVertices: Int) extends RebuildEngine(numVertices) {
  private val cdfs = new Array[Array[Double]](numVertices)

  def name: String = "gSampler"

  protected def rebuild(v: Int, a: Adjacency): Unit =
    if (a.degree == 0) cdfs(v) = null
    else {
      val c = new Array[Double](a.degree)
      var acc = 0.0
      var i = 0
      while (i < a.degree) { acc += a.bias(i); c(i) = acc; i += 1 }
      cdfs(v) = c
    }

  /** O(log d) inverse-transform draw on the per-vertex CDF. */
  protected def sampleSlot(u: Int, rng: SplittableRandom): Int = {
    val c = cdfs(u)
    if (c == null) return -1
    val x = rng.nextDouble() * c(c.length - 1)
    var lo = 0
    var hi = c.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (c(mid) <= x) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** CDF differences over the total mass. */
  protected def slotProbabilities(u: Int): Array[Double] = {
    val c = cdfs(u)
    val tot = c(c.length - 1)
    Array.tabulate(c.length)(i => (c(i) - (if (i == 0) 0.0 else c(i - 1))) / tot)
  }

  /** The CDF. */
  protected def samplerBytes(v: Int): Long = if (cdfs(v) == null) 0L else cdfs(v).length.toLong * 8
}

object GSamplerEngine {
  def factory: EngineFactory = RebuildEngine.factory("gSampler", new GSamplerEngine(_))
}
