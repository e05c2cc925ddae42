package repro.engine

import java.util.SplittableRandom
import repro.core.{Heap, ItsSampler}

/** gSampler-like baseline [15] as used in paper §6.2.
  *
  * gSampler is a GPU graph-sampling system with matrix-centric APIs; as a
  * static-graph system it reconstructs its sampling state from scratch each
  * round ([[RebuildEngine]]). We model that state as per-vertex CDF
  * (prefix-sum) arrays sampled by inverse transform (binary search,
  * O(log d)) — the bulk "matrix" flavour of its per-step operators. It is
  * charged for what it holds: the reloaded arrays plus the CDFs. The paper's
  * gSampler is the most memory-hungry system of Table 3 through GPU
  * matrix-API workspace, which this CPU model does not allocate.
  */
final class GSamplerEngine(numVertices: Int) extends RebuildEngine(numVertices) {
  private val cdfs = new Array[Array[Double]](numVertices)

  def name: String = "gSampler"

  protected def rebuild(v: Int, bias: Array[Double]): Unit =
    if (bias.length == 0) cdfs(v) = null
    else {
      val c = new Array[Double](bias.length)
      ItsSampler.fillCdf(bias, c, 0, c.length)
      cdfs(v) = c
    }

  /** O(log d) inverse-transform draw on the per-vertex CDF. */
  protected def sampleSlot(u: Int, rng: SplittableRandom): Int = {
    val c = cdfs(u)
    if (c == null) -1 else ItsSampler.draw(c, c.length, rng)
  }

  /** CDF differences over the total mass. */
  protected def slotProbabilities(u: Int): Array[Double] = {
    val c = cdfs(u)
    val tot = c(c.length - 1)
    Array.tabulate(c.length)(i => (c(i) - (if (i == 0) 0.0 else c(i - 1))) / tot)
  }

  /** The CDF. */
  protected def samplerBytes(v: Int): Long = Heap.Ref + (if (cdfs(v) == null) 0L else Heap.array(cdfs(v).length, 8))
}

object GSamplerEngine {
  def factory: EngineFactory = RebuildEngine.factory("gSampler", new GSamplerEngine(_))
}
