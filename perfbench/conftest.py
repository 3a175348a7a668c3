import run

run.load_program()
