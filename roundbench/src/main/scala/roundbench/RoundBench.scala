package roundbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._
import scala.util.Try
import org.apache.spark.sql.SparkSession

/** Entry point: `RoundBench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Prints a readable summary, then as its last line one JSON object with
  * `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
  * with `--trace 0`, the per-layer ones with `--trace 1`, each a finite
  * number. A traced run also writes its spans to `.bench_build/roundbench/`.
  */
object RoundBench {

  val EndToEnd: Seq[String] =
    Seq("setup_s", "round_ms_p50", "round_ms_tail", "updates_per_s", "walk_steps_per_s", "retained_mb")

  val PerLayer: Seq[String] = Seq(
    "engine.update_ns_per_update", "engine.rebuild_ms", "engine.rebuild_cp_ms", "engine.sample_ns",
    "engine.has_edge_ns_per_step", "engine.sample_calls", "engine.has_edge_calls", "engine.dead_ends", "engine.model_mb",
    "core.conversions", "core.group_touches", "core.groups_dense", "core.groups_regular", "core.groups_sparse",
    "core.groups_one", "core.isolated_sample_ns", "core.isolated_insert_ns", "core.isolated_delete_ns",
    "walk.self_ns_per_step", "walk.accept_ratio", "walk.truncated_frac",
    "eval.update_job_ms", "eval.update_cp_ms", "eval.update_overhead_ms", "eval.walk_job_ms", "eval.walk_cp_ms",
    "eval.walk_overhead_ms", "eval.task_deser_ms", "eval.sched_delay_ms", "eval.task_gc_ms", "eval.task_skew",
    "eval.serial_round_ms", "eval.first_job_s", "eval.warmup_rounds",
    "graph.generate_s", "graph.stream_s", "trace.overhead",
  )

  private val OutDir = new File(".bench_build/roundbench")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def usage(msg: String): Nothing = {
      System.err.println(s"roundbench: $msg")
      System.err.println(s"usage: --workload <${Workloads.All.map(_.name).mkString("|")}> --seed <n> --seconds <s> --trace <0|1>")
      sys.exit(2)
    }
    val w = opts.get("workload").flatMap(Workloads.byName).getOrElse(usage("unknown or missing --workload"))
    val seed = opts.get("seed").flatMap(_.toLongOption).getOrElse(usage("--seed must be an integer"))
    val seconds = opts.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).getOrElse(usage("--seconds must be > 0"))
    val trace = opts.get("trace") match {
      case Some("0") => false
      case Some("1") => true
      case _ => usage("--trace must be 0 or 1")
    }

    OutDir.mkdirs()
    val cores = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("roundbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    val ok =
      try report(w, seed, trace, spark, new RoundRunner(spark, w, seed).run(seconds, trace))
      finally spark.stop()
    sys.exit(if (ok) 0 else 1)
  }

  /** The context of a result: what ran, where, and how big the program is. */
  private def context(spark: SparkSession): Seq[(String, String)] = {
    val xmx = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(_.startsWith("-Xmx")).lastOption
    Seq(
      "commit" -> Try(scala.sys.process.Process(Seq("git", "rev-parse", "HEAD")).!!(quietLogger).trim)
        .getOrElse("unknown (not a git checkout)"),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "xmx" -> xmx.fold(s"default (max heap ${Runtime.getRuntime.maxMemory >> 20} MiB)")(_.drop(4)),
      "spark_master" -> spark.sparkContext.master,
      "src_main_lines" -> sourceLines(new File("src/main")).toString,
    )
  }

  private val quietLogger = scala.sys.process.ProcessLogger(_ => (), _ => ())

  /** Lines of the program's Scala sources under `dir`. */
  private def sourceLines(dir: File): Long =
    Option(dir.listFiles).toSeq.flatten.map { f =>
      if (f.isDirectory) sourceLines(f)
      else if (f.getName.endsWith(".scala")) java.nio.file.Files.readAllBytes(f.toPath).count(_ == '\n').toLong
      else 0L
    }.sum

  /** Print the summary and the result line; false if the run cannot be reported. */
  private def report(w: Workload, seed: Long, trace: Boolean, spark: SparkSession, res: RunResult): Boolean = {
    val ctx = context(spark)
    val expected = if (trace) PerLayer else EndToEnd
    val byName = res.metrics.map(m => m.name -> m).toMap
    val gate = res.gate
    val failedFrac = gate.failed.toDouble / math.max(1L, gate.attempted)

    println(s"roundbench ${w.name} seed=$seed trace=${if (trace) 1 else 0}")
    res.notes.foreach(n => println(s"  $n"))
    expected.foreach { n =>
      byName.get(n).foreach { m =>
        println(f"  ${m.name}%-28s ${fmt(m.value)}%14s ${m.unit}")
      }
    }
    println(f"  ${"failed_frac"}%-28s ${fmt(failedFrac)}%14s ratio (${gate.failed} of ${gate.attempted} checks)")
    gate.messages.foreach(m => println(s"  FAILED: $m"))
    println(s"  context: ${ctx.map { case (k, v) => s"$k=$v" }.mkString(", ")}")

    if (trace) writeTrace(w, seed, ctx, res)
    val missing = expected.filterNot(byName.contains)
    val bad = res.metrics.filter(m => m.value.isNaN || m.value.isInfinite)
    if (missing.nonEmpty || bad.nonEmpty) {
      System.err.println(s"roundbench: cannot report; missing ${missing.mkString(", ")}; not finite ${bad.map(_.name).mkString(", ")}")
      false
    } else {
      println(resultLine(gate, expected.map(byName)))
      true
    }
  }

  /** The JSON result line. */
  def resultLine(gate: Gate, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s"""${str(m.name)}: {"value": ${m.value}, "unit": ${str(m.unit)}}""")
    s"""{"correct": ${gate.failed == 0}, "attempted": ${gate.attempted}, "failed": ${gate.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }

  private def fmt(v: Double): String = if (v != 0 && math.abs(v) < 0.01) f"$v%.3e" else f"$v%.3f"

  private def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  /** Context, metrics and spans of a traced run, one JSON object per line. */
  private def writeTrace(w: Workload, seed: Long, ctx: Seq[(String, String)], res: RunResult): Unit = {
    val out = new PrintWriter(new File(OutDir, s"trace-${w.name}-seed$seed.jsonl"))
    try {
      out.println(s"""{"context": {${(("workload" -> w.name) +: ctx).map { case (k, v) => s"${str(k)}: ${str(v)}" }.mkString(", ")}}}""")
      res.metrics.foreach { m =>
        out.println(s"""{"metric": ${str(m.name)}, "value": ${m.value}, "unit": ${str(m.unit)}}""")
      }
      res.spans.foreach { s =>
        out.println(
          s"""{"span": ${s.id}, "parent": ${s.parent}, "name": ${str(s.name)}, "round": ${s.round}, """ +
            s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}}"""
        )
      }
    } finally out.close()
  }
}
