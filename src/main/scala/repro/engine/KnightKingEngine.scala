package repro.engine

import java.util.SplittableRandom
import repro.core.{AliasTable, Heap}

/** KnightKing-like baseline [73] as used in paper §6.2.
  *
  * KnightKing samples static biases with per-vertex alias tables (O(1)
  * sampling, O(d) construction); as a static-graph system it reloads the
  * graph and rebuilds every alias table each round ([[RebuildEngine]]).
  * Second-order applications (node2vec) use KnightKing's static-sample +
  * rejection scheme, implemented app-side in [[repro.walk.Walks]].
  */
final class KnightKingEngine(numVertices: Int) extends RebuildEngine(numVertices) {
  private val tables = new Array[AliasTable](numVertices)

  def name: String = "KnightKing"

  protected def rebuild(v: Int, bias: Array[Double]): Unit =
    tables(v) = if (bias.length == 0) null else AliasTable(bias)

  protected def sampleSlot(u: Int, rng: SplittableRandom): Int = {
    val t = tables(u)
    if (t == null) -1 else t.sample(rng)
  }

  protected def slotProbabilities(u: Int): Array[Double] = tables(u).probabilities

  protected def samplerBytes(v: Int): Long = Heap.Ref + (if (tables(v) == null) 0L else tables(v).memoryBytes)
}

object KnightKingEngine {
  def factory: EngineFactory = RebuildEngine.factory("KnightKing", new KnightKingEngine(_))
}
