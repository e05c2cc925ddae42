package repro.engine

import java.util.SplittableRandom
import repro.core.ReservoirSampler

/** FlowWalker-like baseline [39] as used in paper §6.2 and Fig. 16.
  *
  * FlowWalker keeps *no* auxiliary sampling structure: every step performs
  * weighted reservoir sampling over the current neighbor list, costing O(d)
  * per step. That makes updates cheap — the paper's methodology simply
  * *reloads the new graph* after each round ([[RebuildEngine]]), and the
  * walk samples from the reloaded copy — but sampling collapses on
  * high-degree graphs (the 25,000 s TW rows of Table 3 and the 218.7×
  * sampling gap of Fig. 16b).
  */
final class FlowWalkerEngine(numVertices: Int) extends RebuildEngine(numVertices) {
  def name: String = "FlowWalker"

  protected def rebuild(v: Int, bias: Array[Double]): Unit = ()

  /** O(d) weighted reservoir pass over the reloaded biases. */
  protected def sampleSlot(u: Int, rng: SplittableRandom): Int = {
    val w = loadedBias(u)
    if (w.length == 0) -1 else ReservoirSampler.sample(w, 0, w.length, rng)
  }

  /** The reloaded biases over their total. */
  protected def slotProbabilities(u: Int): Array[Double] = {
    val w = loadedBias(u)
    val tot = w.sum
    w.map(_ / tot)
  }

  /** No auxiliary sampling structure — FlowWalker's defining property. */
  protected def samplerBytes(v: Int): Long = 0L
}

object FlowWalkerEngine {
  def factory: EngineFactory = RebuildEngine.factory("FlowWalker", new FlowWalkerEngine(_))
}
