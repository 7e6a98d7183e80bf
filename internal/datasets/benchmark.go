// Package datasets builds the synthetic benchmark suite this repository
// evaluates on: a Spider-like cross-domain benchmark with train/dev/test
// splits over disjoint databases, its three robustness variants
// (Spider-Realistic, Spider-Syn, Spider-DK), and a ScienceBenchmark-like
// suite of three complex scientific databases.
//
// The real Spider family ships as SQLite databases with human-written
// questions and is not available offline; this package substitutes a
// seeded synthetic equivalent that preserves the properties CycleSQL
// exercises (see ARCHITECTURE.md "Substitutions"): executable multi-table
// databases, NL questions whose surface aligns with gold SQL, the Spider
// difficulty spectrum, empty-result queries, and variant perturbations.
package datasets

import (
	"fmt"
	"sync"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/storage"
)

// Example is one NL-SQL pair bound to a database.
type Example struct {
	ID         string
	DBName     string
	Question   string
	GoldSQL    string
	Gold       *sqlast.SelectStmt
	Difficulty sqlnorm.Difficulty
	// RequiresDK marks Spider-DK examples whose NL uses domain knowledge
	// ("American" for country = 'USA'); simulated models without the
	// knowledge mapping degrade on these.
	RequiresDK bool
	// SchemaIndirect marks Spider-Realistic examples whose NL avoids
	// naming schema columns explicitly.
	SchemaIndirect bool
	// SynPerturbed marks Spider-Syn examples whose schema terms were
	// replaced with synonyms.
	SynPerturbed bool
}

// Benchmark is a full dataset: databases plus example splits.
type Benchmark struct {
	Name      string
	Databases map[string]*storage.Database
	Train     []Example
	Dev       []Example
	Test      []Example
}

// DB returns the named database, panicking on unknown names; benchmark
// construction guarantees every example's DBName resolves.
func (b *Benchmark) DB(name string) *storage.Database {
	db, ok := b.Databases[name]
	if !ok {
		panic(fmt.Sprintf("datasets: benchmark %s has no database %q", b.Name, name))
	}
	return db
}

// newExample parses and classifies one gold pair, panicking on invalid
// SQL: generator bugs must fail loudly at construction time.
func newExample(id, dbName, question, goldSQL string) Example {
	stmt := sqlparse.MustParse(goldSQL)
	return Example{
		ID:         id,
		DBName:     dbName,
		Question:   question,
		GoldSQL:    goldSQL,
		Gold:       stmt,
		Difficulty: sqlnorm.Classify(stmt),
	}
}

var (
	spiderOnce sync.Once
	spiderB    *Benchmark

	realisticOnce sync.Once
	realisticB    *Benchmark

	synOnce sync.Once
	synB    *Benchmark

	dkOnce sync.Once
	dkB    *Benchmark

	scienceOnce sync.Once
	scienceB    *Benchmark
)

// Spider returns the synthetic Spider benchmark (cached).
func Spider() *Benchmark {
	spiderOnce.Do(func() { spiderB = buildSpider() })
	return spiderB
}

// SpiderRealistic returns the column-mention-free variant (cached).
func SpiderRealistic() *Benchmark {
	realisticOnce.Do(func() { realisticB = buildVariant("spider-realistic", makeRealistic) })
	return realisticB
}

// SpiderSyn returns the synonym-substitution variant (cached).
func SpiderSyn() *Benchmark {
	synOnce.Do(func() { synB = buildVariant("spider-syn", makeSyn) })
	return synB
}

// SpiderDK returns the domain-knowledge variant (cached).
func SpiderDK() *Benchmark {
	dkOnce.Do(func() { dkB = buildDK() })
	return dkB
}

// Science returns the ScienceBenchmark-like suite (cached).
func Science() *Benchmark {
	scienceOnce.Do(func() { scienceB = buildScience() })
	return scienceB
}

// ByName resolves a benchmark by its canonical name.
func ByName(name string) (*Benchmark, error) {
	switch name {
	case "spider":
		return Spider(), nil
	case "spider-realistic", "realistic":
		return SpiderRealistic(), nil
	case "spider-syn", "syn":
		return SpiderSyn(), nil
	case "spider-dk", "dk":
		return SpiderDK(), nil
	case "science", "sciencebenchmark":
		return Science(), nil
	default:
		return nil, fmt.Errorf("datasets: unknown benchmark %q", name)
	}
}

// buildSpider assembles the synthetic Spider: generic cross-domain
// databases for train/dev/test plus the hand-written world_1 and flight_2
// databases (used by the paper's case study and motivating example) on the
// dev split.
func buildSpider() *Benchmark {
	b := &Benchmark{Name: "spider", Databases: map[string]*storage.Database{}}
	for i, v := range trainVocabs {
		db := buildDomain(v, int64(1000+i))
		b.Databases[v.Domain] = db
		b.Train = append(b.Train, generateExamples(db, v, int64(2000+i), trainPerDomain)...)
	}
	for i, v := range devVocabs {
		db := buildDomain(v, int64(3000+i))
		b.Databases[v.Domain] = db
		b.Dev = append(b.Dev, generateExamples(db, v, int64(4000+i), devPerDomain)...)
	}
	for i, v := range testVocabs {
		db := buildDomain(v, int64(5000+i))
		b.Databases[v.Domain] = db
		b.Test = append(b.Test, generateExamples(db, v, int64(6000+i), devPerDomain)...)
	}
	// Hand-written paper databases join the dev split.
	world := WorldDB()
	b.Databases["world_1"] = world
	b.Dev = append(b.Dev, worldExamples()...)
	flight := FlightDB()
	b.Databases["flight_2"] = flight
	b.Dev = append(b.Dev, flightExamples()...)
	return b
}

// Examples per domain; Spider has ~7000 train / ~1034 dev questions over
// 146/20 databases — roughly 50 per database, which we match.
const (
	trainPerDomain = 56
	devPerDomain   = 48
)

// buildVariant derives a perturbed benchmark from Spider's databases and
// dev split. Variants share the frozen verifier trained on Spider's train
// split (paper §V-A3), so they carry no train examples of their own.
func buildVariant(name string, perturb func(Example) (Example, bool)) *Benchmark {
	base := Spider()
	b := &Benchmark{Name: name, Databases: base.Databases}
	for _, ex := range base.Dev {
		if p, ok := perturb(ex); ok {
			b.Dev = append(b.Dev, p)
		}
	}
	return b
}
