// Ad campaign: Example 1 of the paper (HighStyle Designers).
//
// Campaign manager Alice must reach exactly 1% of the user base, but
// her demographic criteria are too strict. Gender is non-negotiable
// (NOREFINE); age, income and distance-from-store can flex. ACQUIRE
// returns alternative targeting queries that hit the audience size
// while staying as close to her intent as possible — instead of the
// manual trial-and-error loop the Facebook ad interface forces.
//
//	go run ./examples/adcampaign
package main

import (
	"fmt"
	"log"

	"acquire/acq"
)

func main() {
	const population = 200_000
	session, err := acq.NewUsersSession(population, 0, 7)
	if err != nil {
		log.Fatal(err)
	}

	target := population / 100
	sql := fmt.Sprintf(`
		SELECT * FROM users
		CONSTRAINT COUNT(*) = %d
		WHERE (gender = 'Women') NOREFINE
		  AND 18 <= age <= 35
		  AND income <= 70000
		  AND distance <= 35`, target)

	query, err := session.Parse(sql)
	if err != nil {
		log.Fatal(err)
	}
	reach, err := session.Estimate(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Alice's criteria reach %.0f users — %.0f%% of the %d she needs.\n\n",
		reach, 100*reach/float64(target), target)

	// Alice would rather widen the income band than the age band:
	// weight the age dimensions 3x so their refinement is penalised.
	// The parser split "18 <= age <= 27" into two dimensions (lo, hi).
	weights := make([]float64, len(query.Dims))
	for i := range query.Dims {
		if query.Dims[i].Col.Column == "age" {
			weights[i] = 3
		}
	}
	norm, err := acq.LpNorm(1, weights)
	if err != nil {
		log.Fatal(err)
	}

	result, err := session.Refine(query, acq.Options{Gamma: 12, Delta: 0.05, Norm: norm})
	if err != nil {
		log.Fatal(err)
	}
	if !result.Satisfied {
		log.Fatalf("no viable targeting found: %+v", result)
	}

	fmt.Println("alternative targeting queries, least-changed first:")
	for i, rq := range result.Queries {
		if i == 3 {
			break
		}
		fmt.Printf("\n%d. reach %.0f users (weighted refinement %.2f)\n   %s\n",
			i+1, rq.Aggregate, rq.QScore, rq.ToSQL())
	}

	stats := result.Engine // the search's own work
	fmt.Printf("\n[%d evaluation-layer queries, %d rows scanned — one interactive round trip,\n"+
		" not %d manual refine-and-estimate iterations]\n",
		stats.Queries, stats.RowsScanned, result.Explored)
}
