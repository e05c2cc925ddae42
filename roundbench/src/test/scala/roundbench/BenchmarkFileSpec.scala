package roundbench

import java.io.File
import org.json4s._
import org.json4s.jackson.JsonMethods

/** BENCHMARK.json at the repository root lists what this harness reports. */
class BenchmarkFileSpec extends org.scalatest.funsuite.AnyFunSuite {

  private lazy val spec: JValue = {
    val f = new File("../BENCHMARK.json")
    val s = scala.io.Source.fromFile(f, "UTF-8")
    try JsonMethods.parse(s.mkString) finally s.close()
  }

  private def names(key: String): Seq[String] = (spec \ key \ "name").children.collect { case JString(n) => n }

  test("the workloads and metrics match the harness") {
    assert(names("workloads").nonEmpty && names("workloads").forall(Workloads.byName(_).isDefined))
    assert(names("end_to_end").sorted == RoundBench.EndToEnd.sorted)
    assert(names("per_layer").sorted == RoundBench.PerLayer.sorted)
  }
}
