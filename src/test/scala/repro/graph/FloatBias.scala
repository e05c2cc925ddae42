package repro.graph

import scala.util.Random

/** The floating-point bias variant of a generated graph (paper Fig. 14). */
object FloatBias {

  /** Each edge's integer bias plus U(0,1), deterministic in `seed`. */
  def withFloatBias(g: GraphGen.GeneratedGraph, seed: Long = 99L): GraphGen.GeneratedGraph = {
    val rnd = new Random(seed)
    g.copy(edges = g.edges.map(e => e.copy(bias = e.bias + rnd.nextDouble())))
  }
}
