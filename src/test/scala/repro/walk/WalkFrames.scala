package repro.walk

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Test helpers over [[Walks.runWalkers]]: the walkers' paths as a
  * DataFrame, and their visit counts computed relationally.
  */
object WalkFrames {

  /** The walkers' paths from [[Walks.runWalkers]], collected to the driver as a DataFrame
    * (walker: long, pos: int, vertex: int), one row per visited vertex in path order.
    */
  def paths(spark: SparkSession, handle: String, app: Walks.WalkApp, numWalkers: Int, seed: Long): DataFrame = {
    import spark.implicits._
    val rows = Walks.runWalkers(spark, handle, app, numWalkers, seed) { walks =>
      walks.flatMap { case (w, path) => path.iterator.zipWithIndex.map { case (v, pos) => (w, pos, v) } }.toArray
    }
    rows.toSeq.flatten.toDF("walker", "pos", "vertex")
  }

  /** Visit frequency per vertex — the PPR / SimRank / influence indicator
    * (paper §1), computed relationally.
    */
  def visitCounts(paths: DataFrame): DataFrame =
    paths.groupBy("vertex").agg(count(lit(1)).as("visits"))
}
