package roundbench

import org.apache.spark.sql.SparkSession
import org.json4s._
import org.json4s.jackson.JsonMethods
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.engine.{BingoEngine, KnightKingEngine}
import repro.graph.GraphGen
import repro.walk.Walks

class RoundRunnerSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder()
    .master("local[2]")
    .appName("roundbench-test")
    .config("spark.ui.enabled", "false")
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  private val deepWalk = Workload("am-deepwalk", GraphGen.AM, BingoEngine.factory(), Walks.DeepWalk(20), 300, 400)
  private val node2vec = Workload("am-node2vec-kk", GraphGen.AM, KnightKingEngine.factory, Walks.Node2vec(20), 300, 400)

  private def run(w: Workload, trace: Boolean): RunResult =
    new RoundRunner(spark, w, seed = 1).run(seconds = 1.5, trace = trace)

  test("an untraced run reports every end-to-end metric and passes its checks") {
    val res = run(deepWalk, trace = false)
    assert(res.gate.failed == 0, res.gate.messages.mkString("\n"))
    assert(res.metrics.map(_.name) == RoundBench.EndToEnd)
    res.metrics.foreach(m => assert(m.value > 0, m.name))
    assert(res.engineTimes.isEmpty && res.tasks.isEmpty)
  }

  // The layer a workload lacks reads as zero counts and zero time.
  for ((w, absent) <- Seq(
      deepWalk -> Set("engine.has_edge_ns_per_step", "engine.has_edge_calls"),
      node2vec -> Set("core.conversions", "core.group_touches", "core.groups_dense", "core.groups_regular",
        "core.groups_sparse", "core.groups_one"),
    )) {
    lazy val res = run(w, trace = true)

    test(s"${w.name}: a traced run reports every per-layer metric, 0 where the layer is absent") {
      assert(res.gate.failed == 0, res.gate.messages.mkString("\n"))
      assert(res.metrics.map(_.name).sorted == RoundBench.PerLayer.sorted)
      absent.foreach(n => assert(res.metrics.find(_.name == n).get.value == 0.0, n))
      Seq("engine.sample_ns", "core.isolated_sample_ns", "walk.self_ns_per_step", "trace.overhead")
        .foreach(n => assert(res.metrics.find(_.name == n).get.value > 0, n))
      assert(res.rounds.exists(_.traced) && res.rounds.exists(!_.traced))
    }

    test(s"${w.name}: the result line writes every metric as a number") {
      val line = JsonMethods.parse(RoundBench.resultLine(res.gate, res.metrics)) \ "metrics"
      res.metrics.foreach(m => assert((line \ m.name \ "value") == JDouble(m.value), m.name))
    }

    test(s"${w.name}: the layer accounting adds up") {
      val resolutionNs = 1000000L // Spark reports task times in whole ms
      res.rounds.foreach { rt =>
        assert(rt.updateCpNs <= rt.updateWallNs && rt.walkCpNs <= rt.walkWallNs, s"round ${rt.round}")
      }
      val engineByTask = res.engineTimes.map(t => t.taskId -> t).toMap
      for (rt <- res.rounds.filter(_.traced); job <- Seq("update", "walk")) {
        val sparkTasks = res.tasks.filter(t => t.round == rt.round && t.job == job)
        val engineTasks = res.engineTimes.filter(t => t.round == rt.round && t.job == job)
        // every task of a traced job is seen both by Spark and inside the engine
        assert(sparkTasks.map(_.taskId).toSet == engineTasks.map(_.taskId).toSet, s"round ${rt.round} $job")
        sparkTasks.foreach { t =>
          val selfNs = t.runMs * 1000000L - engineByTask(t.taskId).engineNs
          assert(selfNs >= -resolutionNs, s"engine time exceeds task ${t.taskId}'s run time")
        }
        if (job == "update") assert(engineTasks.map(_.updates).sum == w.batch)
        else w.app match {
          case _: Walks.DeepWalk => assert(engineTasks.map(t => t.sampleCalls - t.deadEnds).sum == rt.steps)
          case _ => assert(engineTasks.map(_.sampleCalls).sum >= rt.steps)
        }
      }
      val byId = res.spans.map(s => s.id -> s).toMap
      res.spans.filter(_.name.contains("task")).foreach { s =>
        val job = byId(s.parent)
        assert(job.name.endsWith("job") && byId(job.parent).name.startsWith("round"))
        assert(s.startNs >= job.startNs - 5 * resolutionNs && s.endNs <= job.endNs + 5 * resolutionNs, s.name)
      }
    }
  }
}
