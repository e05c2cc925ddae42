package roundbench

import java.util.SplittableRandom
import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.TaskContext
import repro.engine.WalkEngine
import repro.graph.Update

/** Engine time and call counts seen by one Spark task (or, with
  * `taskId == -1`, by code running outside any task). Written by one
  * thread only.
  */
final class TaskEngineTime(val taskId: Long, val round: Int, val job: String) {
  var updateNs = 0L
  var updates = 0L
  var rebuildNs = 0L
  var sampleNs = 0L
  var sampleCalls = 0L
  var deadEnds = 0L
  var hasEdgeNs = 0L
  var hasEdgeCalls = 0L

  def engineNs: Long = updateNs + rebuildNs + sampleNs + hasEdgeNs
}

/** A forwarding [[WalkEngine]] that times each call into `inner` and sums
  * the time per Spark task, keyed by the round and job the benchmark set as
  * local properties ([[TracingEngine.RoundKey]], [[TracingEngine.JobKey]]).
  * It records one summary per task, never one span per call.
  */
final class TracingEngine(inner: WalkEngine) extends WalkEngine {
  import TracingEngine._

  private val perThread = new ThreadLocal[TaskEngineTime]
  private val all = new ConcurrentLinkedQueue[TaskEngineTime]()

  /** Remove and return the summaries of the tasks run so far. */
  def drain(): Seq[TaskEngineTime] = {
    val out = Seq.newBuilder[TaskEngineTime]
    var t = all.poll()
    while (t != null) { out += t; t = all.poll() }
    perThread.remove()
    out.result()
  }

  private def current(): TaskEngineTime = {
    val tc = TaskContext.get()
    val id = if (tc == null) -1L else tc.taskAttemptId()
    val cur = perThread.get()
    if (cur != null && cur.taskId == id) cur
    else {
      val t =
        if (tc == null) new TaskEngineTime(-1L, -1, "none")
        else
          new TaskEngineTime(
            id,
            Option(tc.getLocalProperty(RoundKey)).fold(-1)(_.toInt),
            Option(tc.getLocalProperty(JobKey)).getOrElse("?"),
          )
      perThread.set(t)
      all.add(t)
      t
    }
  }

  def name: String = inner.name
  def numVertices: Int = inner.numVertices
  def outDegree(v: Int): Int = inner.outDegree(v)
  def memoryBytes: Long = inner.memoryBytes
  def exactDistribution(u: Int): Map[Int, Double] = inner.exactDistribution(u)

  def hasEdge(u: Int, v: Int): Boolean = {
    val t = current()
    val t0 = System.nanoTime()
    val r = inner.hasEdge(u, v)
    t.hasEdgeNs += System.nanoTime() - t0
    t.hasEdgeCalls += 1
    r
  }

  def applyVertexUpdates(src: Int, updates: Seq[Update]): Unit = {
    val t = current()
    val t0 = System.nanoTime()
    inner.applyVertexUpdates(src, updates)
    t.updateNs += System.nanoTime() - t0
    t.updates += updates.length
  }

  def postRoundSlice(slice: Int, stride: Int): Unit = {
    val t = current()
    val t0 = System.nanoTime()
    inner.postRoundSlice(slice, stride)
    t.rebuildNs += System.nanoTime() - t0
  }

  def sampleNext(u: Int, rng: SplittableRandom): Int = {
    val t = current()
    val t0 = System.nanoTime()
    val r = inner.sampleNext(u, rng)
    t.sampleNs += System.nanoTime() - t0
    t.sampleCalls += 1
    if (r < 0) t.deadEnds += 1
    r
  }
}

object TracingEngine {
  val RoundKey = "roundbench.round"
  val JobKey = "roundbench.job"
}
