package datasets

import "cyclesql/internal/storage"

// scienceVocabs are the three ScienceBenchmark-like scientific domains:
// OncoMX (cancer biomarkers), CORDIS (EU research projects) and SDSS (sky
// survey). The real benchmark ships three production research databases
// with expert-written questions; these seeded equivalents preserve the
// property the paper leans on — complex, jargon-heavy schemata on which
// general NL2SQL models degrade sharply (Table I, right columns).
var scienceVocabs = []Vocab{
	{
		Domain:   "oncomx",
		CatTable: "anatomical_entity", CatNatural: "anatomical entity",
		CatNames:   []string{"breast", "lung", "colon", "prostate", "kidney", "liver", "pancreas", "ovary"},
		CatMeasure: "uberon_rank", CatMeasureNatural: "uberon rank", CatMeasureRange: [2]int{1, 40},
		EntTable: "biomarker", EntNatural: "biomarker",
		EntNames: seq("BM", 40, 1000), FKCol: "anatomical_id",
		Measure: "expression_score", MeasureNatural: "expression score", MeasureRange: [2]int{0, 100},
		Place: "test_type", PlaceNatural: "test type", Places: []string{"diagnostic", "prognostic", "predictive", "monitoring"},
		Level: "phase", LevelNatural: "phase", LevelRange: [2]int{1, 4},
		OwnTable: "gene", OwnNatural: "gene",
		OwnNames: []string{"BRCA1", "BRCA2", "TP53", "EGFR", "KRAS", "ALK", "HER2", "MYC", "PTEN", "RB1", "APC", "VHL", "MLH1", "ATM", "CHEK2", "PALB2"},
		OwnAttr:  "chromosome", OwnAttrNatural: "chromosome", OwnAttrRange: [2]int{1, 22},
		OwnCat: "biotype", OwnCatNatural: "biotype", OwnCats: []string{"protein_coding", "lncRNA", "miRNA"},
		DK:  map[string][2]string{"late-phase": {"phase", ">=3"}, "highly-expressed": {"expression_score", ">=80"}},
		Syn: map[string]string{"biomarker": "marker", "gene": "locus", "expression score": "expression level"},
	},
	{
		Domain:   "cordis",
		CatTable: "funding_scheme", CatNatural: "funding scheme",
		CatNames:   []string{"ERC-ADG", "ERC-STG", "MSCA-IF", "RIA", "CSA", "IA"},
		CatMeasure: "max_grant", CatMeasureNatural: "maximum grant", CatMeasureRange: [2]int{100, 2500},
		EntTable: "project", EntNatural: "project",
		EntNames: seq("Project", 40, 700000), FKCol: "scheme_id",
		Measure: "total_cost", MeasureNatural: "total cost", MeasureRange: [2]int{50, 3000},
		Place: "framework", PlaceNatural: "framework programme", Places: []string{"FP7", "H2020", "Horizon Europe"},
		Level: "duration_years", LevelNatural: "duration", LevelRange: [2]int{1, 6},
		OwnTable: "institution", OwnNatural: "institution",
		OwnNames: []string{"ETH Zurich", "KU Leuven", "Max Planck Society", "CNRS", "University of Bologna", "TU Delft", "Uppsala University", "Charles University", "Aalto University", "CSIC", "INRIA", "University of Vienna"},
		OwnAttr:  "num_members", OwnAttrNatural: "number of members", OwnAttrRange: [2]int{1, 60},
		OwnCat: "country", OwnCatNatural: "country", OwnCats: []string{"CH", "BE", "DE", "FR", "IT", "NL", "SE"},
		DK:  map[string][2]string{"large-scale": {"total_cost", ">=2000"}, "long-running": {"duration_years", ">=5"}},
		Syn: map[string]string{"project": "grant", "institution": "organisation", "total cost": "budget"},
	},
	{
		Domain:   "sdss",
		CatTable: "photo_run", CatNatural: "photometric run",
		CatNames:   seq("Run", 8, 94),
		CatMeasure: "field_count", CatMeasureNatural: "field count", CatMeasureRange: [2]int{10, 900},
		EntTable: "photo_obj", EntNatural: "photometric object",
		EntNames: seq("Obj", 44, 58000), FKCol: "run_id",
		Measure: "magnitude_r", MeasureNatural: "r-band magnitude", MeasureRange: [2]int{12, 26},
		Place: "obj_class", PlaceNatural: "object class", Places: []string{"STAR", "GALAXY", "QSO"},
		Level: "quality_flag", LevelNatural: "quality flag", LevelRange: [2]int{0, 3},
		OwnTable: "spec_obj", OwnNatural: "spectroscopic object",
		OwnNames: seq("Spec", 20, 300), OwnAttr: "redshift_milli", OwnAttrNatural: "redshift", OwnAttrRange: [2]int{0, 700},
		OwnCat: "survey", OwnCatNatural: "survey", OwnCats: []string{"legacy", "boss", "segue"},
		DK:  map[string][2]string{"faint": {"magnitude_r", ">=22"}, "high-redshift": {"redshift_milli", ">=500"}},
		Syn: map[string]string{"photometric object": "detection", "r-band magnitude": "brightness", "object class": "type"},
	},
}

// SciencePerDomain matches the real benchmark's ~100 expert pairs per
// database.
const sciencePerDomain = 100

// buildScience assembles the three-domain scientific benchmark. It has no
// train split: the paper evaluates with the verifier frozen from Spider.
func buildScience() *Benchmark {
	b := &Benchmark{Name: "science", Databases: map[string]*storage.Database{}}
	for i, v := range scienceVocabs {
		db := buildDomain(v, int64(9000+i))
		b.Databases[v.Domain] = db
		b.Dev = append(b.Dev, generateExamples(db, v, int64(9500+i), sciencePerDomain)...)
	}
	return b
}
