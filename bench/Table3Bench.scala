package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import repro.SparkSpec
import repro.eval.{Bench, Tables}

/** Reproduces paper Table 3: Bingo vs KnightKing vs gSampler vs FlowWalker
  * across {DeepWalk, node2vec, PPR} × {Insertion, Deletion, Mixed} × the
  * five datasets, reporting runtime and memory.
  *
  * Absolute numbers differ from the paper (our substrate is a 16-core JVM,
  * not an A100 vs a Xeon), but the *shape* must hold and is asserted:
  *  - Bingo beats every per-round-reload/rebuild baseline in total and in
  *    update time on the biggest graph (TW), because its updates are
  *    incremental O(B·K) instead of O(E);
  *  - FlowWalker's O(d) sampling collapses on TW (the paper's 25,000 s
  *    outlier), making it the slowest system there by a wide margin;
  *  - FlowWalker keeps the least sampling-structure memory and Bingo keeps
  *    more than KnightKing on the large graphs (the paper's memory
  *    observation).
  */
class Table3Bench extends AnyFunSuite with SparkSpec {

  test("Table 3: Bingo vs SOTA runtime and memory") {
    val params = Bench.Params()
    // warmup: one tiny discarded config per framework so the measured grid
    // runs against JIT-compiled engine code
    val warmG = repro.graph.GraphGen.generate(repro.graph.GraphGen.AM)
    val warmP = Bench.Params(batchSize = 100, rounds = 2, walkers = 256, walkLength = 20)
    Tables.frameworks.foreach { fw =>
      Bench.runConfig(spark, warmG, repro.walk.Walks.DeepWalk(20), repro.graph.UpdateMode.Mixed, fw, warmP)
    }
    val rows = Tables.table3Rows(spark, params)
    val out = Tables.table3Format(rows)
    println(out)
    BenchOutput.write("table3.txt", out)
    BenchOutput.write(
      "table3.csv",
      "app,mode,framework,dataset,update_sec,walk_sec,total_sec,mem_mb,steps\n" +
        rows
          .map(r =>
            s"${r.app},${r.mode},${r.framework},${r.dataset},${r.updateSec},${r.walkSec},${r.totalSec},${r.memMB},${r.steps}"
          )
          .mkString("\n"),
    )

    val byKey = rows.map(r => (r.app, r.mode, r.framework, r.dataset) -> r).toMap
    val apps = rows.map(_.app).distinct
    val modes = rows.map(_.mode).distinct
    val combos = for (a <- apps; m <- modes) yield (a, m)
    def cell(app: String, mode: String, fw: String, ds: String) = byKey((app, mode, fw, ds))
    def meanTW(fw: String, f: Bench.Result => Double): Double =
      combos.map { case (a, m) => f(cell(a, m, fw, "TW")) }.sum / combos.size

    // Individual cells sit in the low-millisecond range at -lite scale, so
    // the shape claims are asserted on means over the 9 (app, mode) combos.
    // Every comparison is evaluated before the test fails, so a failing run
    // names each failed comparison with its ratio.
    val failures = ArrayBuffer.empty[String]
    def check(ok: Boolean, what: String, ratio: Double): Unit = if (!ok) failures += f"$what (ratio $ratio%.2f)"

    // (1) Bingo wins the total on the biggest graph (TW) against every
    // baseline — the paper's headline claim. Vs FlowWalker the gap is O(1)
    // vs O(d) sampling; vs KnightKing and gSampler it is incremental O(B·K)
    // maintenance vs per-round O(E) reload-and-rebuild.
    for (fw <- Seq("KnightKing", "gSampler", "FlowWalker")) {
      val (bingo, other) = (meanTW("Bingo", _.totalSec), meanTW(fw, _.totalSec))
      check(bingo < other, s"(1) TW mean total: Bingo ${bingo}s should beat $fw ${other}s", other / bingo)
    }
    // (2) Bingo's incremental updates beat the per-round O(E) rebuilders by a
    // wide margin on TW (paper Fig. 16a's point).
    for (fw <- Seq("KnightKing", "gSampler", "FlowWalker")) {
      val (bingo, other) = (meanTW("Bingo", _.updateSec), meanTW(fw, _.updateSec))
      check(bingo * 3 < other, s"(2) TW mean update: $fw ${other}s should exceed 3× Bingo ${bingo}s", other / bingo)
    }
    // (3) FlowWalker's O(d) sampling collapses on TW (paper: 25,000 s rows,
    // 218.7x sampling gap in Fig. 16b) — per combo, not just on average.
    for ((app, mode) <- combos) {
      val (bingo, fw) = (cell(app, mode, "Bingo", "TW").walkSec, cell(app, mode, "FlowWalker", "TW").walkSec)
      check(fw > 3.0 * bingo, s"(3) $app/$mode: FlowWalker walk ${fw}s should exceed 3× Bingo ${bingo}s", fw / bingo)
    }
    // (4) memory: FlowWalker (no aux structures) <= Bingo on every dataset.
    // Bingo carries more than KnightKing on the large skewed graphs (LJ, TW)
    // — the paper's observation. (On AM the adaptive representation beats
    // KnightKing outright: AM is ~73% dense groups, the paper's own Fig. 11e
    // best case, so dense groups store nothing.)
    for ((app, mode) <- combos) {
      for (ds <- rows.map(_.dataset).distinct) {
        val (bingo, fw) = (cell(app, mode, "Bingo", ds).memMB, cell(app, mode, "FlowWalker", ds).memMB)
        check(fw <= bingo, s"(4) $app/$mode/$ds: FlowWalker mem $fw MB should be ≤ Bingo $bingo MB", fw / bingo)
      }
      for (ds <- Seq("LJ", "TW")) {
        val (bingo, kk) = (cell(app, mode, "Bingo", ds).memMB, cell(app, mode, "KnightKing", ds).memMB)
        val what = s"(4) $app/$mode/$ds: KnightKing mem $kk MB should be ≤ 1.05× Bingo $bingo MB"
        check(kk <= bingo * 1.05, what, kk / bingo)
      }
    }
    if (failures.nonEmpty) fail(s"${failures.size} shape comparison(s) failed:\n${failures.mkString("\n")}")
  }
}
