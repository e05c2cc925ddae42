package roundbench

import repro.engine.{BingoEngine, EngineFactory, KnightKingEngine}
import repro.graph.GraphGen
import repro.graph.GraphGen.DatasetSpec
import repro.walk.Walks

/** One benchmark workload: a graph shape, an engine, a walk application
  * and the round shape (Mixed updates per round, walkers per round).
  */
final case class Workload(
    name: String,
    spec: DatasetSpec,
    factory: EngineFactory,
    app: Walks.WalkApp,
    batch: Int,
    walkers: Int,
)

object Workloads {

  /** Sampling-bound: 20,000 DeepWalk walkers (= |V|, the paper's count) on
    * the most skewed graph, against 1,000 updates per round. Stresses
    * `BingoVertex.sample` in place. Not in BENCHMARK.json: on a shared host
    * its run-to-run spread reached the 0.25 bound.
    */
  val TwDeepWalk: Workload = Workload("tw-deepwalk", GraphGen.TW, BingoEngine.factory(), Walks.DeepWalk(80), 1000, 20000)

  /** Update-bound: 50,000 Mixed updates per round (~15% of LJ-lite's
    * edges) with 1,024 PPR walkers. Stresses `BingoVertex.applyBatch` and
    * the routing of updates to slices in `Bench.applyRoundSpark`.
    */
  val LjChurn: Workload = Workload("lj-churn", GraphGen.LJ, BingoEngine.factory(), Walks.Ppr(), 50000, 1024)

  /** The rebuild-per-round baseline on the same graph as `tw-deepwalk`:
    * the O(E) reload plus alias rebuild and node2vec's rejection with
    * `hasEdge` dominate, and Bingo's `core` does no work.
    */
  val TwNode2vecKk: Workload =
    Workload("tw-node2vec-kk", GraphGen.TW, KnightKingEngine.factory, Walks.Node2vec(80, 0.5, 2.0), 1000, 4096)

  val All: Seq[Workload] = Seq(TwDeepWalk, LjChurn, TwNode2vecKk)

  def byName(n: String): Option[Workload] = All.find(_.name == n)
}
