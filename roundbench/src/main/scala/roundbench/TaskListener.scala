package roundbench

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

/** What Spark reports for one finished task (times in ms, as Spark keeps them). */
final case class TaskRecord(
    round: Int,
    job: String,
    taskId: Long,
    launchMs: Long,
    finishMs: Long,
    runMs: Long,
    deserMs: Long,
    schedDelayMs: Long,
    gcMs: Long,
)

/** Collects task metrics of the jobs tagged with a round (see
  * [[TracingEngine.RoundKey]]). Listener events arrive asynchronously, so
  * [[awaitJobs]] waits until the end of the jobs the benchmark has run.
  */
final class TaskListener extends SparkListener {
  private val stageTag = new java.util.concurrent.ConcurrentHashMap[Int, (Int, String)]()
  private val tasks = new ConcurrentLinkedQueue[TaskRecord]()
  private val taggedJobs = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
  private val jobsEnded = new java.util.concurrent.atomic.AtomicInteger()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val round = Option(e.properties).flatMap(p => Option(p.getProperty(TracingEngine.RoundKey)))
    round.foreach { r =>
      val job = e.properties.getProperty(TracingEngine.JobKey, "?")
      taggedJobs.add(e.jobId)
      e.stageIds.foreach(s => stageTag.put(s, (r.toInt, job)))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (taggedJobs.contains(e.jobId)) jobsEnded.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val tag = stageTag.get(e.stageId)
    val m = e.taskMetrics
    if (tag != null && m != null) {
      val info = e.taskInfo
      val sched = info.duration - m.executorRunTime - m.executorDeserializeTime -
        m.resultSerializationTime - info.gettingResultTime
      tasks.add(
        TaskRecord(tag._1, tag._2, info.taskId, info.launchTime, info.finishTime, m.executorRunTime,
          m.executorDeserializeTime, math.max(0L, sched), m.jvmGCTime)
      )
    }
  }

  /** Wait (at most `timeoutMs`) until `n` tagged jobs have ended. */
  def awaitJobs(n: Int, timeoutMs: Long = 10000): Boolean = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (jobsEnded.get() < n && System.currentTimeMillis() < deadline) Thread.sleep(5)
    jobsEnded.get() >= n
  }

  def records: Seq[TaskRecord] = { import scala.jdk.CollectionConverters._; tasks.asScala.toSeq }
}
