package datasets

import (
	"cyclesql/internal/schema"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// FlightDB builds the paper's Fig 2 database (flight_2): Aircraft and
// Flight, with the exact rows shown in the figure.
func FlightDB() *storage.Database {
	s := &schema.Schema{
		Name: "flight_2",
		Tables: []*schema.Table{
			{Name: "aircraft", NaturalName: "aircraft", Columns: []schema.Column{
				{Name: "aid", Type: sqltypes.KindInt, PrimaryKey: true, Role: "id"},
				{Name: "name", Type: sqltypes.KindText, NaturalName: "aircraft name", Role: "name"},
				{Name: "distance", Type: sqltypes.KindInt, NaturalName: "distance", Role: "measure"},
			}},
			{Name: "flight", NaturalName: "flight", Columns: []schema.Column{
				{Name: "flno", Type: sqltypes.KindInt, PrimaryKey: true, NaturalName: "flight number", Role: "id"},
				{Name: "aid", Type: sqltypes.KindInt, NaturalName: "aircraft id", Role: "fk"},
				{Name: "origin", Type: sqltypes.KindText, NaturalName: "origin", Role: "category"},
				{Name: "destination", Type: sqltypes.KindText, NaturalName: "destination", Role: "category"},
			}},
		},
		ForeignKeys: []schema.ForeignKey{
			{Table: "flight", Column: "aid", RefTable: "aircraft", RefColumn: "aid"},
		},
	}
	if err := s.Validate(); err != nil {
		panic("datasets: flight_2: " + err.Error())
	}
	db := storage.NewDatabase(s)
	type a struct {
		aid  int64
		name string
		dist int64
	}
	for _, r := range []a{
		{1, "Boeing 747-400", 8430}, {2, "Boeing 737-800", 3383},
		{3, "Airbus A340-300", 7120}, {4, "British Aerospace Jetstream 41", 1502},
		{5, "Embraer ERJ-145", 1530}, {6, "SAAB 340", 2128},
		{7, "Piper Archer III", 520}, {8, "Tupolev 154", 4103},
		{9, "Lockheed L1011", 6900}, {10, "Boeing 757-300", 4010},
	} {
		db.MustInsert("aircraft", sqltypes.NewInt(r.aid), sqltypes.NewText(r.name), sqltypes.NewInt(r.dist))
	}
	type f struct {
		flno, aid    int64
		origin, dest string
	}
	for _, r := range []f{
		{2, 9, "Los Angeles", "Tokyo"}, {7, 3, "Los Angeles", "Sydney"},
		{13, 3, "Los Angeles", "Chicago"}, {68, 10, "Chicago", "New York"},
		{76, 9, "Chicago", "Los Angeles"}, {33, 7, "Los Angeles", "Honolulu"},
		{34, 5, "Los Angeles", "Honolulu"}, {99, 1, "Los Angeles", "Washington D.C."},
		{346, 2, "Los Angeles", "Dallas"}, {387, 6, "Los Angeles", "Boston"},
	} {
		db.MustInsert("flight", sqltypes.NewInt(r.flno), sqltypes.NewInt(r.aid), sqltypes.NewText(r.origin), sqltypes.NewText(r.dest))
	}
	return db
}

// flightExamples are hand-written pairs on flight_2, led by the paper's
// motivating question from Fig 2.
func flightExamples() []Example {
	pairs := []struct{ q, sql string }{
		// The Fig 2 question, with the *correct* gold SQL.
		{"Show all flight numbers with aircraft Airbus A340-300.",
			"SELECT T1.flno FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'"},
		{"How many flights depart from Los Angeles?",
			"SELECT count(*) FROM flight WHERE origin = 'Los Angeles'"},
		{"What is the name of the aircraft with the greatest distance?",
			"SELECT name FROM aircraft ORDER BY distance DESC LIMIT 1"},
		{"List the names of aircraft that are not used by any flight.",
			"SELECT name FROM aircraft WHERE aid NOT IN (SELECT aid FROM flight)"},
		{"For each origin, count the number of flights.",
			"SELECT origin, count(*) FROM flight GROUP BY origin"},
		{"Show the destinations of flights using aircraft named Lockheed L1011.",
			"SELECT T1.destination FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Lockheed L1011'"},
		{"What is the average distance of all aircraft?",
			"SELECT avg(distance) FROM aircraft"},
		{"Which aircraft names have a distance above the average?",
			"SELECT name FROM aircraft WHERE distance > (SELECT avg(distance) FROM aircraft)"},
		{"How many aircraft have distance between 1000 and 5000?",
			"SELECT count(*) FROM aircraft WHERE distance BETWEEN 1000 AND 5000"},
		{"Show the aircraft name used by the most flights.",
			"SELECT T2.name FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid GROUP BY T2.name ORDER BY count(*) DESC LIMIT 1"},
	}
	out := make([]Example, 0, len(pairs))
	gold := goldExecutor(FlightDB())
	for i, p := range pairs {
		ex := newExample(fmtID("flight_2", i), "flight_2", p.q, p.sql)
		mustExecute(gold, ex)
		out = append(out, ex)
	}
	return out
}
