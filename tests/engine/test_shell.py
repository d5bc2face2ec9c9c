"""Interactive shell tests (driven through in-memory streams)."""

import io


from repro.engine.shell import Shell


def run_shell(script: str, shell: Shell = None) -> str:
    out = io.StringIO()
    sh = shell or Shell(stdout=out)
    sh.stdout = out
    for line in script.splitlines():
        sh.feed_line(line + "\n")
    return out.getvalue()


class TestShell:
    def test_create_insert_select(self):
        output = run_shell(
            "CREATE TABLE t (a INT, v REAL UNCERTAIN);\n"
            "INSERT INTO t VALUES (1, GAUSSIAN(5, 1));\n"
            "SELECT * FROM t;"
        )
        assert "CREATE TABLE t" in output
        assert "INSERT 1" in output
        assert "GAUSSIAN(5, 1)" in output
        assert "(1 row)" in output

    def test_multiline_statement(self):
        output = run_shell(
            "CREATE TABLE t (a INT);\n"
            "INSERT INTO t\n"
            "VALUES (1),\n"
            "       (2);\n"
            "SELECT * FROM t;"
        )
        assert "INSERT 2" in output
        assert "(2 rows)" in output

    def test_error_reported_not_raised(self):
        output = run_shell("SELECT * FROM missing;")
        assert "error:" in output
        assert "missing" in output

    def test_syntax_error_reported(self):
        output = run_shell("SELEKT;")
        assert "error:" in output

    def test_dot_tables(self):
        output = run_shell(
            "CREATE TABLE one (a INT);\nCREATE TABLE two (b INT);\n.tables"
        )
        assert "one" in output and "two" in output

    def test_dot_tables_empty(self):
        assert "(no tables)" in run_shell(".tables")

    def test_dot_schema(self):
        output = run_shell("CREATE TABLE t (a INT, v REAL UNCERTAIN);\n.schema t")
        assert "a:int" in output and "v:real" in output

    def test_dot_stats(self):
        output = run_shell(".stats")
        assert "buffer" in output and "disk" in output

    def test_dot_help(self):
        assert ".tables" in run_shell(".help")

    def test_unknown_dot_command(self):
        assert "unknown command" in run_shell(".bogus")

    def test_explain(self):
        output = run_shell(
            "CREATE TABLE t (a INT);\nEXPLAIN SELECT * FROM t;"
        )
        assert "SeqScan" in output

    def test_quit_stops(self):
        sh = Shell(stdout=io.StringIO())
        sh.feed_line(".quit\n")
        assert not sh._running

    def test_save_and_open(self, tmp_path):
        path = str(tmp_path / "shell.rpdb")
        output = run_shell(
            "CREATE TABLE t (a INT);\n"
            "INSERT INTO t VALUES (7);\n"
            f".save {path}\n"
        )
        assert "saved" in output
        output2 = run_shell(f".open {path}\nSELECT * FROM t;")
        assert "(1 row)" in output2

    def test_blank_lines_ignored(self):
        output = run_shell("\n\nCREATE TABLE t (a INT);")
        assert "CREATE TABLE" in output

    def test_open_durable_directory_and_checkpoint(self, tmp_path):
        path = str(tmp_path / "durable_db")
        output = run_shell(
            f".open {path}\n"
            "CREATE TABLE t (a INT, v REAL UNCERTAIN);\n"
            "INSERT INTO t VALUES (1, GAUSSIAN(0, 1));\n"
            "BEGIN;\n"
            "INSERT INTO t VALUES (2, UNIFORM(0, 1));\n"
            "COMMIT;\n"
            ".checkpoint\n"
        )
        assert "opened" in output and "checkpoint written" in output
        # the session recovers from the directory
        output2 = run_shell(f".open {path}\nSELECT a FROM t;")
        assert "(2 rows)" in output2

    def test_checkpoint_in_memory_reports_error(self):
        assert "error" in run_shell(".checkpoint")
