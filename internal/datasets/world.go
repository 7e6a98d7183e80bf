package datasets

import (
	"cyclesql/internal/schema"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// WorldDB builds the hand-written world_1 database used by the paper's
// case study (Table IV) and user study: country / city / countrylanguage
// with enough real-world-shaped data to reproduce the paper's example
// results (Aruba speaks four languages, Anguilla is in North America,
// Seychelles speaks both English and French, Iraq speaks five languages,
// Estonia's population exceeds 80000).
func WorldDB() *storage.Database {
	s := &schema.Schema{
		Name: "world_1",
		Tables: []*schema.Table{
			{Name: "country", NaturalName: "country", Columns: []schema.Column{
				{Name: "code", Type: sqltypes.KindText, PrimaryKey: true, Role: "id"},
				{Name: "name", Type: sqltypes.KindText, NaturalName: "country name", Role: "name"},
				{Name: "continent", Type: sqltypes.KindText, NaturalName: "continent", Role: "category"},
				{Name: "population", Type: sqltypes.KindInt, NaturalName: "population", Role: "measure"},
			}},
			{Name: "city", NaturalName: "city", Columns: []schema.Column{
				{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true, Role: "id"},
				{Name: "name", Type: sqltypes.KindText, NaturalName: "city name", Role: "name"},
				{Name: "countrycode", Type: sqltypes.KindText, NaturalName: "country code", Role: "fk"},
				{Name: "population", Type: sqltypes.KindInt, NaturalName: "population", Role: "measure"},
			}},
			{Name: "countrylanguage", NaturalName: "country language", Columns: []schema.Column{
				{Name: "countrycode", Type: sqltypes.KindText, NaturalName: "country code", Role: "fk"},
				{Name: "language", Type: sqltypes.KindText, NaturalName: "language", Role: "category"},
				{Name: "isofficial", Type: sqltypes.KindText, NaturalName: "is official", Role: "category"},
				{Name: "percentage", Type: sqltypes.KindFloat, NaturalName: "percentage", Role: "measure"},
			}},
		},
		ForeignKeys: []schema.ForeignKey{
			{Table: "city", Column: "countrycode", RefTable: "country", RefColumn: "code"},
			{Table: "countrylanguage", Column: "countrycode", RefTable: "country", RefColumn: "code"},
		},
	}
	if err := s.Validate(); err != nil {
		panic("datasets: world_1: " + err.Error())
	}
	db := storage.NewDatabase(s)
	type c struct {
		code, name, continent string
		pop                   int64
	}
	for _, r := range []c{
		{"ABW", "Aruba", "North America", 103000},
		{"AIA", "Anguilla", "North America", 8000},
		{"SYC", "Seychelles", "Africa", 77000},
		{"IRQ", "Iraq", "Asia", 23115000},
		{"EST", "Estonia", "Europe", 1439200},
		{"RUS", "Russian Federation", "Europe", 146934000},
		{"FRA", "France", "Europe", 59225700},
		{"DEU", "Germany", "Europe", 82164700},
		{"GBR", "United Kingdom", "Europe", 59623400},
		{"IRL", "Ireland", "Europe", 3775100},
		{"ESP", "Spain", "Europe", 39441700},
		{"ITA", "Italy", "Europe", 57680000},
		{"NLD", "Netherlands", "Europe", 15864000},
		{"BEL", "Belgium", "Europe", 10239000},
		{"CHE", "Switzerland", "Europe", 7160400},
		{"CAN", "Canada", "North America", 31147000},
		{"USA", "United States", "North America", 278357000},
		{"MEX", "Mexico", "North America", 98881000},
		{"BRA", "Brazil", "South America", 170115000},
		{"ARG", "Argentina", "South America", 37032000},
		{"CHN", "China", "Asia", 1277558000},
		{"JPN", "Japan", "Asia", 126714000},
		{"IND", "India", "Asia", 1013662000},
		{"EGY", "Egypt", "Africa", 68470000},
		{"NGA", "Nigeria", "Africa", 111506000},
		{"AUS", "Australia", "Oceania", 18886000},
		{"NZL", "New Zealand", "Oceania", 3862000},
		{"CMR", "Cameroon", "Africa", 15085000},
		{"VUT", "Vanuatu", "Oceania", 190000},
		{"MCO", "Monaco", "Europe", 34000},
	} {
		db.MustInsert("country", sqltypes.NewText(r.code), sqltypes.NewText(r.name), sqltypes.NewText(r.continent), sqltypes.NewInt(r.pop))
	}
	type ct struct {
		id   int64
		name string
		cc   string
		pop  int64
	}
	for _, r := range []ct{
		{1, "Oranjestad", "ABW", 29034},
		{2, "The Valley", "AIA", 595},
		{3, "Victoria", "SYC", 41000},
		{4, "Baghdad", "IRQ", 4336000},
		{5, "Tallinn", "EST", 403981},
		{6, "Moscow", "RUS", 8389200},
		{7, "Nabereznyje Tselny", "RUS", 514700},
		{8, "Saint Petersburg", "RUS", 4694000},
		{9, "Paris", "FRA", 2125246},
		{10, "Lyon", "FRA", 445452},
		{11, "Berlin", "DEU", 3386667},
		{12, "Hamburg", "DEU", 1704735},
		{13, "London", "GBR", 7285000},
		{14, "Dublin", "IRL", 481854},
		{15, "Madrid", "ESP", 2879052},
		{16, "Rome", "ITA", 2643581},
		{17, "Amsterdam", "NLD", 731200},
		{18, "Brussels", "BEL", 133859},
		{19, "Zurich", "CHE", 336800},
		{20, "Toronto", "CAN", 688275},
		{21, "New York", "USA", 8008278},
		{22, "Mexico City", "MEX", 8591309},
		{23, "Sao Paulo", "BRA", 9968485},
		{24, "Buenos Aires", "ARG", 2982146},
		{25, "Shanghai", "CHN", 9696300},
		{26, "Tokyo", "JPN", 7980230},
		{27, "Mumbai", "IND", 10500000},
		{28, "Cairo", "EGY", 6789479},
		{29, "Lagos", "NGA", 1518000},
		{30, "Sydney", "AUS", 3276500},
		{31, "Auckland", "NZL", 381800},
		{32, "Douala", "CMR", 1448300},
		{33, "Geneva", "CHE", 173500},
		{34, "Monte-Carlo", "MCO", 13154},
	} {
		db.MustInsert("city", sqltypes.NewInt(r.id), sqltypes.NewText(r.name), sqltypes.NewText(r.cc), sqltypes.NewInt(r.pop))
	}
	type l struct {
		cc, lang, official string
		pct                float64
	}
	for _, r := range []l{
		// Aruba speaks four languages (paper Q1).
		{"ABW", "Dutch", "T", 5.3}, {"ABW", "Papiamento", "F", 76.7}, {"ABW", "Spanish", "F", 7.4}, {"ABW", "English", "F", 9.5},
		{"AIA", "English", "T", 100.0},
		// Seychelles speaks both English and French (paper Q3).
		{"SYC", "English", "T", 3.8}, {"SYC", "French", "T", 1.3}, {"SYC", "Seselwa", "F", 91.3},
		// Iraq speaks five languages (paper Q5).
		{"IRQ", "Arabic", "T", 77.2}, {"IRQ", "Kurdish", "F", 19.0}, {"IRQ", "Azerbaijani", "F", 1.7}, {"IRQ", "Assyrian", "F", 0.8}, {"IRQ", "Persian", "F", 0.8},
		{"EST", "Estonian", "T", 65.3}, {"EST", "Russian", "F", 27.8}, {"EST", "Ukrainian", "F", 2.8},
		{"RUS", "Russian", "T", 86.6}, {"RUS", "Tatar", "F", 3.2}, {"RUS", "Ukrainian", "F", 1.3},
		{"FRA", "French", "T", 93.6}, {"FRA", "Arabic", "F", 2.5}, {"FRA", "Portuguese", "F", 1.2},
		{"DEU", "German", "T", 91.3}, {"DEU", "Turkish", "F", 2.6},
		{"GBR", "English", "T", 97.3}, {"GBR", "Welsh", "F", 0.9},
		{"IRL", "English", "T", 98.4}, {"IRL", "Irish", "T", 1.6},
		{"ESP", "Spanish", "T", 74.4}, {"ESP", "Catalan", "F", 16.9}, {"ESP", "Galician", "F", 6.4},
		{"ITA", "Italian", "T", 94.1}, {"ITA", "Sardinian", "F", 2.7},
		{"NLD", "Dutch", "T", 95.6}, {"NLD", "Frisian", "F", 3.7},
		{"BEL", "Dutch", "T", 59.2}, {"BEL", "French", "T", 32.6}, {"BEL", "German", "T", 1.0},
		{"CHE", "German", "T", 63.6}, {"CHE", "French", "T", 19.2}, {"CHE", "Italian", "T", 7.7},
		{"CAN", "English", "T", 60.4}, {"CAN", "French", "T", 23.4},
		{"USA", "English", "T", 86.2}, {"USA", "Spanish", "F", 7.5},
		{"MEX", "Spanish", "T", 92.1}, {"MEX", "Nahuatl", "F", 1.8},
		{"BRA", "Portuguese", "T", 97.5}, {"BRA", "German", "F", 0.5},
		{"ARG", "Spanish", "T", 96.8}, {"ARG", "Italian", "F", 1.7},
		{"CHN", "Chinese", "T", 92.0}, {"CHN", "Zhuang", "F", 1.4},
		{"JPN", "Japanese", "T", 99.1},
		{"IND", "Hindi", "T", 39.9}, {"IND", "Bengali", "F", 8.2}, {"IND", "Telugu", "F", 7.8},
		{"EGY", "Arabic", "T", 98.8},
		{"NGA", "Hausa", "F", 21.1}, {"NGA", "Yoruba", "F", 21.0}, {"NGA", "English", "T", 0.0},
		{"AUS", "English", "T", 81.2}, {"AUS", "Italian", "F", 2.2},
		{"NZL", "English", "T", 87.0}, {"NZL", "Maori", "T", 4.3},
		// Cameroon speaks both English and French too (enriches Q3).
		{"CMR", "French", "T", 40.0}, {"CMR", "English", "T", 20.0}, {"CMR", "Fang", "F", 19.7},
		{"VUT", "Bislama", "T", 56.6}, {"VUT", "English", "T", 28.3}, {"VUT", "French", "T", 14.2},
		{"MCO", "French", "T", 58.5}, {"MCO", "Monegasque", "F", 16.1},
	} {
		db.MustInsert("countrylanguage", sqltypes.NewText(r.cc), sqltypes.NewText(r.lang), sqltypes.NewText(r.official), sqltypes.NewFloat(r.pct))
	}
	return db
}

// worldExamples are the hand-written NL-SQL pairs on world_1, including
// the five case-study queries of the paper's Table IV (Q1-Q5).
func worldExamples() []Example {
	pairs := []struct{ q, sql string }{
		// Table IV Q1.
		{"What is the total number of languages used in Aruba?",
			"SELECT count(T2.language) FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T1.name = 'Aruba'"},
		// Table IV Q2.
		{"What is the continent name that Anguilla belongs to?",
			"SELECT continent FROM country WHERE name = 'Anguilla'"},
		// Table IV Q3.
		{"What are the names of nations that speak both English and French?",
			"SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'English' INTERSECT SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'French'"},
		// Table IV Q4.
		{"Which cities are in European countries where English is not the official language?",
			"SELECT DISTINCT T2.name FROM country AS T1 JOIN city AS T2 ON T1.code = T2.countrycode WHERE T1.continent = 'Europe' AND T1.name NOT IN (SELECT T3.name FROM country AS T3 JOIN countrylanguage AS T4 ON T3.code = T4.countrycode WHERE T4.isofficial = 'T' AND T4.language = 'English')"},
		// Table IV Q5.
		{"Return the country name and the numbers of languages spoken for each country that speaks at least 3 languages.",
			"SELECT count(T2.language), T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode GROUP BY T1.name HAVING count(*) > 2"},
		// Error-analysis example (§V-A5): population filter on Europe.
		{"Give the names of countries that are in Europe and have a population equal to 80000.",
			"SELECT name FROM country WHERE continent = 'Europe' AND population = 80000"},
		{"How many countries are in Africa?",
			"SELECT count(*) FROM country WHERE continent = 'Africa'"},
		{"What is the name of the most populated country?",
			"SELECT name FROM country ORDER BY population DESC LIMIT 1"},
		{"List the names of cities with population over 5000000.",
			"SELECT name FROM city WHERE population > 5000000"},
		{"For each continent, how many countries are there?",
			"SELECT continent, count(*) FROM country GROUP BY continent"},
		{"What is the average population of European countries?",
			"SELECT avg(population) FROM country WHERE continent = 'Europe'"},
		{"Which languages are official in more than 3 countries?",
			"SELECT language FROM countrylanguage WHERE isofficial = 'T' GROUP BY language HAVING count(*) > 3"},
		{"Show the names of countries where Spanish is spoken.",
			"SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'Spanish'"},
		{"How many cities does the Russian Federation have?",
			"SELECT count(*) FROM city AS T1 JOIN country AS T2 ON T1.countrycode = T2.code WHERE T2.name = 'Russian Federation'"},
		{"List the names of countries that have no official language recorded.",
			"SELECT name FROM country WHERE code NOT IN (SELECT countrycode FROM countrylanguage WHERE isofficial = 'T')"},
		{"What are the distinct continents?",
			"SELECT DISTINCT continent FROM country"},
		{"Show the name of the city with the smallest population.",
			"SELECT name FROM city ORDER BY population LIMIT 1"},
		{"How many languages are spoken in Iraq?",
			"SELECT count(*) FROM countrylanguage WHERE countrycode = 'IRQ'"},
		{"Show country names with population between 1000000 and 20000000.",
			"SELECT name FROM country WHERE population BETWEEN 1000000 AND 20000000"},
		{"Which countries speak French but not English?",
			"SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'French' EXCEPT SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'English'"},
	}
	out := make([]Example, 0, len(pairs))
	gold := goldExecutor(WorldDB())
	for i, p := range pairs {
		ex := newExample(fmtID("world_1", i), "world_1", p.q, p.sql)
		mustExecute(gold, ex)
		out = append(out, ex)
	}
	return out
}

func fmtID(db string, i int) string {
	return db + "-" + pad3(i)
}

func pad3(i int) string {
	s := itoa(i)
	for len(s) < 3 {
		s = "0" + s
	}
	return s
}
