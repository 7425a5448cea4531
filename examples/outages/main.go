// Command outages replays the historical outage scenarios of the paper's
// Table 1 and §5 as Gremlin recipes against simulated deployments:
//
//   - Stackdriver 2013 / Parse.ly 2015: a Cassandra crash percolates
//     through the message bus and blocks every publisher (the
//     "cascading failure caused by middleware").
//   - BBC 2014 / CircleCI 2015 / Joyent 2015: an overloaded database
//     throttles requests; services without circuit breakers or timeouts
//     pile on and fail completely.
//
// Each recipe runs twice: against the fragile deployment (assertions fail,
// predicting the outage) and against a hardened deployment with timeouts
// and breakers (assertions pass). The recipes live in experiments.Table1;
// this program prints its matrix and exits non-zero unless the matrix has
// that shape.
package main

import (
	"log"
	"os"

	"gremlin/internal/experiments"
)

func main() {
	rows, err := experiments.Table1(experiments.Options{})
	if err != nil {
		log.Fatal(err)
	}
	experiments.PrintTable1(os.Stdout, rows)
	if err := experiments.CheckTable1(rows); err != nil {
		log.Fatal(err)
	}
}
